"""Differential tests: constant folding and the dataflow solver against
their reference forms in ``tests/oracles/ir_routines.py``.

Every block and CFG of JPEG, OFDM and 20 generated programs, both as
lowered and after ``optimize_cdfg``, must give equal instruction lists
and fold counts, and equal in/out sets and iteration counts for
liveness, reaching definitions and definite assignment.
"""

from __future__ import annotations

import pytest
from oracles import (
    PerSweepDefiniteAssignment,
    PerSweepLiveness,
    PerSweepReachingDefinitions,
    oracle_fold_constants,
)

from repro.ir import (
    DefiniteAssignment,
    LivenessAnalysis,
    ReachingDefinitions,
    cdfg_from_source,
)
from repro.ir.basicblock import BasicBlock
from repro.ir.passes import (
    eliminate_dead_code_in_block,
    fold_constants_in_block,
    optimize_cdfg,
    propagate_copies_in_block,
)
from repro.workloads import jpeg_source, ofdm_source, synthetic_program_source

PROGRAMS = [
    ("jpeg", jpeg_source),
    ("ofdm", ofdm_source),
    *(
        (f"minic_s{seed}", lambda seed=seed: synthetic_program_source(seed))
        for seed in range(20)
    ),
]

ANALYSES = [
    (LivenessAnalysis, PerSweepLiveness),
    (ReachingDefinitions, PerSweepReachingDefinitions),
    (DefiniteAssignment, PerSweepDefiniteAssignment),
]


@pytest.fixture(scope="module", params=PROGRAMS, ids=[p[0] for p in PROGRAMS])
def states(request):
    """The program's CDFG as lowered and after the pass pipeline."""
    name, source = request.param
    lowered = cdfg_from_source(source(), f"{name}.c")
    optimized = cdfg_from_source(source(), f"{name}.c")
    optimize_cdfg(optimized)
    return [lowered, optimized]


def _copy(block: BasicBlock) -> BasicBlock:
    return BasicBlock(block.label, list(block.instructions), block.bb_id)


def test_fold_matches_reference(states):
    blocks = 0
    for cdfg in states:
        for cfg in cdfg.cfgs.values():
            for block in cfg:
                blocks += 1
                ours, reference = _copy(block), _copy(block)
                # Follow the local pipeline so later rounds fold the
                # states copy propagation and DCE leave behind.
                for _ in range(4):
                    folded = fold_constants_in_block(ours)
                    assert folded == oracle_fold_constants(reference)
                    assert ours.instructions == reference.instructions
                    for block_pass in (
                        propagate_copies_in_block,
                        eliminate_dead_code_in_block,
                    ):
                        block_pass(ours)
                        block_pass(reference)
    assert blocks


def test_fold_rebuilds_only_substituted_instructions():
    cdfg = cdfg_from_source(
        "int f(int n) { int a = 2 * 3; return n + a; }", "fold.c"
    )
    block = cdfg.cfg("f").entry
    before = list(block.instructions)  # mul #2, #3; a = copy %t0; add; ret
    assert fold_constants_in_block(block) == 1
    kept = [new is old for old, new in zip(before, block.instructions, strict=True)]
    assert kept == [False, False, True, True]


@pytest.mark.parametrize(
    "ours, reference", ANALYSES, ids=[a[0].__name__ for a in ANALYSES]
)
def test_solver_matches_reference(states, ours, reference):
    for cdfg in states:
        for cfg in cdfg.cfgs.values():
            got = ours().solve(cfg)
            want = reference().solve(cfg)
            assert got.in_sets == want.in_sets
            assert got.out_sets == want.out_sets
            assert got.iterations == want.iterations
