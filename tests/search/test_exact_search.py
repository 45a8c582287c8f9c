"""Differential coverage for the closed-form exact search.

:mod:`repro.search.exhaustive` computes the optimum and the per-(moved,
rows) Pareto reduction from the table's ``move_delta`` and ``cgc_rows``
columns.  The enumerating searches it replaced are the references in
``tests/oracles/``: the Gray-code walk (whole, or in contiguous code
segments), the budgeted walk, branch-and-bound (whole, or in prefix
tasks), and the object depth-first walk.  Each folds what it visits
through the same two production rules (``Optimum``, ``ShapeReduction``),
so these tests compare answers — optimum, per-shape representatives,
``PartitionResult`` records and ``pareto_front()`` — not rule
implementations.  Each rule is written once, so only inputs with tied
deltas and rows can catch a wrong tie-break; the hypothesis property
over hand-built tables supplies them.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ExactSearch,
    branch_and_bound,
    budgeted_walk,
    expected_log,
    gray_walk,
    object_partitioner,
)
from oracles.exact_search import fold, merge, shape_minima
from repro.explore import WorkloadSpec
from repro.partition import ApplicationWorkload, EngineConfig
from repro.partition.packed import PackedCostTable
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, make_partitioner
from repro.search.exhaustive import (
    ExhaustivePartitioner,
    optimum_mask,
    shape_representatives,
)
from repro.search.pareto import pareto_front_from_best
from repro.specs import algorithm_spec_from_text
from repro.workloads import synthetic_application

# Workload families (6–22 supported kernels; synth20 carries a
# zero-delta kernel, so the moves/BB-ids tie-break is exercised too).
WORKLOAD_SPECS = {
    "ofdm": WorkloadSpec.ofdm(),
    "jpeg": WorkloadSpec.jpeg(),
    "filterbank": WorkloadSpec.filterbank(),
    "viterbi": WorkloadSpec.viterbi(),
    "synth12": WorkloadSpec.synthetic(
        12, seed=3, kernel_fraction=0.8, comm_intensity=0.8
    ),
    "synth20": WorkloadSpec.synthetic(
        20, seed=5, kernel_fraction=0.8, comm_intensity=0.5
    ),
    "synth18-comm": WorkloadSpec.synthetic(18, seed=2, comm_intensity=1.5),
    "synth18-skew": WorkloadSpec.synthetic(18, seed=1, weight_skew=3.0),
    "synth14-flat": WorkloadSpec.synthetic(14, seed=7, weight_skew=1.0),
}

#: Families cheap enough to walk all 2^n subsets (jpeg's 2^22 is left to
#: branch-and-bound below).
SHARD_FAMILIES = tuple(name for name in WORKLOAD_SPECS if name != "jpeg")

SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def platform():
    return paper_platform(1500, 2)


@pytest.fixture(scope="module")
def workloads():
    return {name: spec.build() for name, spec in WORKLOAD_SPECS.items()}


@pytest.fixture(scope="module")
def tables(workloads, platform):
    return {
        name: make_partitioner(AlgorithmSpec.exhaustive(), workload, platform)
        .table
        for name, workload in workloads.items()
    }


def closed_form(table: PackedCostTable, budget=None) -> ExactSearch:
    """The closed form's answer in the oracles' terms."""
    shapes = {
        shape: (table.ticks_to_cycles(ticks), mask)
        for shape, (ticks, mask) in shape_representatives(
            table, budget
        ).items()
    }
    return ExactSearch(optimum_mask(table, budget), shapes, len(shapes))


def assert_same_answer(found: ExactSearch, expected: ExactSearch) -> None:
    assert found.mask == expected.mask
    assert found.shapes == expected.shapes


def assert_partitioner_agrees(
    workload, platform, expected: ExactSearch, budget=None
) -> ExhaustivePartitioner:
    """Run the partitioner at an unreachable and at a half constraint:
    both results replay the expected optimum, and ``pareto_front()`` is
    the front of the expected reduction."""
    partitioner = make_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform,
        config=EngineConfig(max_kernels_moved=budget),
    )
    table = partitioner.table
    cycles = table.ticks_to_cycles(table.total_ticks_of(expected.mask))
    for constraint in (1, max(1, partitioner.initial_cycles() // 2)):
        result = partitioner.run(constraint)
        assert tuple(sorted(result.moved_bb_ids)) == table.bb_ids_of(
            expected.mask
        )
        assert result.final_cycles == cycles
        assert result.certified
    assert partitioner.pareto_front() == pareto_front_from_best(
        expected.shapes, table, "exhaustive"
    )
    return partitioner


def segments(n: int, shards: int) -> list[tuple[int, int]]:
    """``shards`` contiguous Gray-code ranges covering all 2^n codes."""
    codes = 1 << n
    bounds = [codes * index // shards for index in range(shards + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


# ----------------------------------------------------------------------
# Against the Gray-code walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("family", SHARD_FAMILIES)
def test_sharded_walk_is_bit_identical(
    workloads, platform, tables, family, shards
):
    """The oracle walk over ``shards`` contiguous code segments, each
    folded on its own and merged, reaches the closed form's optimum and
    representatives — the fold rules are order-independent, which the
    closed form's shape-ordered log relies on."""
    table = tables[family]
    walked = merge(
        table,
        (
            fold(table, gray_walk(table, lo, hi))
            for lo, hi in segments(len(table), shards)
        ),
    )
    assert walked.visits == 2 ** len(table)
    assert_same_answer(closed_form(table), walked)
    if shards == 1:
        assert_partitioner_agrees(workloads[family], platform, walked)


def test_sharded_keep_visits_reproduces_serial_columns(tables):
    """Walk segments, each seeded at its first code, concatenate to the
    whole walk record for record (what the sharded comparisons rely
    on), and every configuration the closed form logs is one the walk
    visits, with the same ticks."""
    table = tables["synth12"]
    whole = list(gray_walk(table))
    pieces = [
        visit
        for lo, hi in segments(len(table), 4)
        for visit in gray_walk(table, lo, hi)
    ]
    assert pieces == whole
    ticks_by_mask = {mask: ticks for ticks, mask in whole}
    logged = shape_representatives(table).values()
    assert all(ticks_by_mask[mask] == ticks for ticks, mask in logged)


# ----------------------------------------------------------------------
# Against branch-and-bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", tuple(WORKLOAD_SPECS))
def test_branch_and_bound_is_bit_identical(
    workloads, platform, tables, family
):
    table = tables[family]
    bnb = branch_and_bound(table)
    assert_same_answer(closed_form(table), bnb)
    assert_partitioner_agrees(workloads[family], platform, bnb)
    if 2 ** len(table) > 1024:
        # Big enough spaces must actually prune (tiny ones may not).
        assert bnb.visits < 2 ** len(table)
        assert bnb.pruned > 0


@pytest.mark.parametrize("shards", (2, 4, 8))
@pytest.mark.parametrize("family", ("ofdm", "synth20", "viterbi"))
def test_sharded_branch_and_bound_is_bit_identical(tables, family, shards):
    """Prefix-decomposed branch-and-bound: every prefix task prunes
    against its own incumbents, yet the merged answer is the closed
    form's."""
    table = tables[family]
    bits = (shards - 1).bit_length()
    tasks = merge(
        table,
        (
            branch_and_bound(table, prefix=prefix, bits=bits)
            for prefix in range(1 << bits)
        ),
    )
    assert_same_answer(closed_form(table), tasks)


@pytest.mark.parametrize("budget", (2, 3))
@pytest.mark.parametrize("family", ("ofdm", "jpeg", "synth20", "viterbi"))
def test_budgeted_branch_and_bound_matches_budgeted_walk(
    workloads, platform, tables, family, budget
):
    """Under a move budget the budgeted walk, branch-and-bound and the
    closed form agree, and the bound never visits more."""
    table = tables[family]
    walk = fold(table, budgeted_walk(table, budget))
    bnb = branch_and_bound(table, budget)
    assert_same_answer(bnb, walk)
    assert_same_answer(closed_form(table, budget), walk)
    assert bnb.visits <= walk.visits
    assert_partitioner_agrees(workloads[family], platform, walk, budget)


def test_bound_slack_makes_visits_monotone(tables):
    """Loosening the oracle's admissible bound (``slack`` ticks before a
    subtree may be cut) can only grow the visited set — the property
    that pins the bound's admissibility.  Answers stay exact at every
    slack."""
    table = tables["synth20"]
    expected = closed_form(table)
    visits = []
    for slack in (0, 10, 10_000, 10**12):
        bnb = branch_and_bound(table, slack=slack)
        assert_same_answer(bnb, expected)
        visits.append(bnb.visits)
    assert visits == sorted(visits)
    # Unbounded slack disables optimum pruning outright; the shape-aware
    # front bound is the only cut left, so the walk grows a lot.
    assert visits[0] < visits[-1]


# ----------------------------------------------------------------------
# Beyond enumeration
# ----------------------------------------------------------------------
def test_certifies_32_plus_kernels_against_analytic_optimum(platform):
    """A 2^34 subset space, checked against the analytic Eq. 2 optimum
    (the objective is additive, so the unconstrained optimum is initial
    plus every negative delta and the optimal subset is exactly the
    negative-delta kernels) and against branch-and-bound's front."""
    workload = WorkloadSpec.synthetic(
        40, seed=9, kernel_fraction=0.85
    ).build()
    partitioner = ExhaustivePartitioner(workload, platform)
    table = partitioner.table
    assert len(table) >= 32
    result = partitioner.run(1)  # unreachable: minimize outright
    negative = [
        index for index, delta in enumerate(table.move_delta) if delta < 0
    ]
    analytic_ticks = table.initial_ticks + sum(
        table.move_delta[index] for index in negative
    )
    assert result.final_cycles == table.ticks_to_cycles(analytic_ticks)
    assert tuple(sorted(result.moved_bb_ids)) == table.bb_ids_of(
        sum(1 << index for index in negative)
    )
    bnb = branch_and_bound(table)
    assert partitioner.pareto_front() == pareto_front_from_best(
        bnb.shapes, table, "exhaustive"
    )


@pytest.fixture(scope="module")
def table_102(platform):
    workload = WorkloadSpec.synthetic(128, seed=11, kernel_fraction=0.8)
    return make_partitioner(
        AlgorithmSpec.exhaustive(), workload.build(), platform
    ).table


@pytest.mark.parametrize("budget", (None, 1, 7, 40))
def test_shape_minima_at_100_plus_kernels_match_the_dp_oracle(
    table_102, budget
):
    """Far past any walk: every shape's cycles equal the dynamic-
    programming minimum, and its representative has that shape."""
    table = table_102
    assert len(table) >= 100
    representatives = shape_representatives(table, budget)
    assert {
        shape: table.ticks_to_cycles(ticks)
        for shape, (ticks, __) in representatives.items()
    } == shape_minima(table, budget)
    for (moved, rows), (ticks, mask) in representatives.items():
        assert mask.bit_count() == moved
        assert table.rows_used(mask) == rows
        assert table.total_ticks_of(mask) == ticks


def test_reduced_log_keeps_front_and_counts(workloads, platform, tables):
    """The exhaustive log holds the all-FPGA mask, the optimum and one
    representative per shape — nothing else — and its front is the
    whole walk's."""
    table = tables["synth12"]
    walked = fold(table, gray_walk(table))
    partitioner = assert_partitioner_agrees(
        workloads["synth12"], platform, walked
    )
    logged = {mask for __, mask in walked.shapes.values()}
    logged |= {0, walked.mask}
    assert partitioner.visited_count == len(logged) < walked.visits
    assert {
        table.mask_of(config.moved_bb_ids) for config in partitioner.visited
    } == logged


# ----------------------------------------------------------------------
# Edge cases, on hand-built tables
# ----------------------------------------------------------------------
def hand_table(deltas, rows, bb_ids=None, ratio=1, base=80) -> PackedCostTable:
    """A consistent table: each kernel takes 10 FPGA ticks and
    ``10 + delta`` CGC ticks; the rest of the program takes ``base``."""
    n = len(deltas)
    bb_ids = tuple(range(1, n + 1) if bb_ids is None else bb_ids)
    return PackedCostTable(
        workload_name="hand-built",
        platform_name="hand-built",
        clock_ratio=ratio,
        initial_ticks=base + 10 * n,
        bb_ids=bb_ids,
        fpga_ticks=(10,) * n,
        cgc_ticks=tuple(10 + delta for delta in deltas),
        comm_ticks=(0,) * n,
        move_delta=tuple(deltas),
        cgc_rows=tuple(rows),
        weights=(1,) * n,
        skipped_bb_ids=(),
        candidates=tuple((bb_id, i) for i, bb_id in enumerate(bb_ids)),
    )


def hand_partitioner(table, budget=None) -> ExhaustivePartitioner:
    return ExhaustivePartitioner(
        ApplicationWorkload(name=table.workload_name, blocks=[]),
        paper_platform(1500, 2),
        config=EngineConfig(max_kernels_moved=budget),
        packed_table=table,
    )


def test_optimum_breaks_delta_ties_by_bb_id():
    table = hand_table((-3, -3, -3, -1), (1, 1, 1, 1), bb_ids=(9, 2, 5, 1))
    assert optimum_mask(table) == 0b1111
    # Two of the three -3 kernels fit the budget: BB 2 and BB 5.
    assert table.bb_ids_of(optimum_mask(table, 2)) == (2, 5)
    assert table.bb_ids_of(optimum_mask(table, 1)) == (2,)


def test_optimum_leaves_zero_delta_kernels_on_the_fpga():
    """A zero delta ties on ticks with one more move: fewer moves win."""
    table = hand_table((-2, 0, -1, 0), (1, 2, 1, 2))
    assert optimum_mask(table) == 0b0101
    assert optimum_mask(table, 1) == 0b0001


def test_representative_takes_the_smaller_bb_tuple_on_a_cycle_tie():
    """At clock ratio 3, moving BB 7 (delta -6, 94 ticks) or BB 3
    (delta -5, 95 ticks) both take 32 cycles.  With one move allowed,
    BB 3 represents shape (1, 1) and BB 7 is the optimum (fewer ticks),
    so the log holds both."""
    table = hand_table((-6, -5), (1, 1), bb_ids=(7, 3), ratio=3)
    assert shape_representatives(table, 1) == {
        (0, 0): (100, 0),
        (1, 1): (95, 0b10),
    }
    assert optimum_mask(table, 1) == 0b01
    partitioner = hand_partitioner(table, budget=1)
    assert partitioner.run(1).moved_bb_ids == [7]
    assert partitioner.visited_count == 3


def test_zero_row_kernels_form_their_own_shapes():
    table = hand_table((-1, -4, -2), (0, 0, 1))
    assert sorted(shape_representatives(table)) == [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1),
    ]
    assert_same_answer(closed_form(table), fold(table, gray_walk(table)))


def test_empty_table_has_only_the_all_fpga_shape():
    table = hand_table((), ())
    assert optimum_mask(table) == 0
    assert shape_representatives(table) == {(0, 0): (80, 0)}
    partitioner = hand_partitioner(table)
    assert partitioner.run(1).moved_bb_ids == []
    assert [c.moved_kernel_count for c in partitioner.pareto_front()] == [0]


def test_budget_zero_keeps_the_all_fpga_mapping():
    partitioner = hand_partitioner(hand_table((-5, -3), (1, 2)), budget=0)
    assert partitioner.run(1).moved_bb_ids == []
    assert partitioner.visited_count == 1
    assert [c.moved_kernel_count for c in partitioner.pareto_front()] == [0]


def test_sweep_solves_once(monkeypatch):
    """The optimum is constraint-independent: the first run solves and
    logs, every later run of a sweep replays it."""
    from repro.search import exhaustive

    calls = []
    solve = exhaustive.shape_representatives

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(exhaustive, "shape_representatives", counted)
    partitioner = hand_partitioner(hand_table((-5, -3, 2), (1, 2, 1)))
    results = partitioner.sweep([1, 90, 95])
    assert len(calls) == 1
    # The optimum, BB 1 and BB 2, is also shape (2, 2)'s representative.
    assert partitioner.visited_count == len(solve(partitioner.table))
    assert {tuple(r.moved_bb_ids) for r in results} == {(1, 2)}


def test_strict_mode_rejects_unsupported_kernels_before_solving():
    table = hand_table((-5, -3), (1, 2))
    strict = PackedCostTable(
        **{**table.__getstate__(), "skipped_bb_ids": (99,),
           "candidates": ((99, -1), *table.candidates)}
    )
    partitioner = ExhaustivePartitioner(
        ApplicationWorkload(name="hand-built", blocks=[]),
        paper_platform(1500, 2),
        config=EngineConfig(skip_unsupported_kernels=False),
        packed_table=strict,
    )
    with pytest.raises(ValueError, match="kernel BB 99 cannot execute"):
        partitioner.run(1)
    assert partitioner.visited_count == 1  # only the all-FPGA corner


def test_budget_at_or_above_the_kernel_count_is_unbudgeted():
    table = hand_table((-5, 2, -3, 0, -3), (2, 1, 1, 3, 2))
    unbudgeted = closed_form(table)
    for budget in (len(table), len(table) + 3):
        assert_same_answer(closed_form(table, budget), unbudgeted)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_invalid_knobs_rejected(workloads, platform):
    workload = workloads["viterbi"]
    with pytest.raises(ValueError, match="max_candidates"):
        ExhaustivePartitioner(workload, platform, max_candidates=0)
    # The sharded walk, its worker cap and its spec spelling are gone.
    with pytest.raises(TypeError, match="shards"):
        ExhaustivePartitioner(workload, platform, shards=2)
    with pytest.raises(TypeError, match="shards"):
        AlgorithmSpec.exhaustive(shards=2)
    with pytest.raises(ValueError, match="shards"):
        algorithm_spec_from_text("exhaustive:shards=2")
    with pytest.raises(TypeError, match="search_workers"):
        EngineConfig(search_workers=1)
    # prune= is accepted and ignored: there is nothing left to prune.
    assert AlgorithmSpec.exhaustive(prune=True) == AlgorithmSpec.exhaustive()
    assert algorithm_spec_from_text("exhaustive:prune=true").label == (
        "exhaustive"
    )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@st.composite
def tied_tables(draw):
    """Hand-built tables drawn from a few delta and row values, so equal
    deltas, equal rows, zero and positive deltas are the common case."""
    n = draw(st.integers(0, 12))
    deltas = draw(
        st.lists(st.sampled_from((-7, -3, -3, -1, 0, 2, 5)), min_size=n,
                 max_size=n)
    )
    rows = draw(
        st.lists(st.sampled_from((0, 1, 1, 2, 2, 3)), min_size=n,
                 max_size=n)
    )
    return hand_table(
        deltas,
        rows,
        bb_ids=draw(st.permutations(range(3 * n)))[:n],
        ratio=draw(st.sampled_from((1, 2, 3, 5))),
        base=draw(st.integers(70, 120)),
    )


@settings(max_examples=150, deadline=None)
@given(table=tied_tables())
def test_closed_form_matches_brute_force_on_tied_tables(table):
    """Every budget's optimum and representatives equal a brute-force
    fold of all 2^n masks through ``Optimum`` and ``ShapeReduction``."""
    everything = list(gray_walk(table))
    for budget in (None, 0, 1, 2, 3, 5):
        within = (
            everything
            if budget is None
            else [v for v in everything if v[1].bit_count() <= budget]
        )
        assert_same_answer(closed_form(table, budget), fold(table, within))


@settings(max_examples=60, deadline=None)
@given(table=tied_tables(), budget=st.sampled_from((None, 0, 1, 2, 3, 5)))
def test_partitioner_matches_brute_force_on_tied_tables(table, budget):
    """Through ``run()``: the result replays the brute-force optimum,
    ``pareto_front()`` is the brute-force front, and ``visited`` holds
    exactly the all-FPGA mask, the optimum and the shape winners."""
    expected = fold(
        table,
        (
            visit
            for visit in gray_walk(table)
            if budget is None or visit[1].bit_count() <= budget
        ),
    )
    partitioner = hand_partitioner(table, budget)
    result = partitioner.run(1)
    assert tuple(sorted(result.moved_bb_ids)) == table.bb_ids_of(
        expected.mask
    )
    assert partitioner.pareto_front() == pareto_front_from_best(
        expected.shapes, table, "exhaustive"
    )
    logged = {mask for __, mask in expected.shapes.values()}
    assert {
        table.mask_of(config.moved_bb_ids) for config in partitioner.visited
    } == logged | {0, expected.mask}


@settings(max_examples=40, deadline=None)
# synth20's BB 3 has a zero move delta, so its optimum ties on ticks with
# one more move: the fewer-moves rule decides.
@example(
    blocks=20, seed=5, kernel_fraction=0.8, comm_intensity=0.5, budget=None
)
@given(
    blocks=st.integers(6, 16),
    seed=st.integers(0, 10_000),
    kernel_fraction=st.floats(0.3, 1.0),
    comm_intensity=st.floats(0.0, 1.5),
    budget=st.sampled_from((None, 1, 2, 3)),
)
def test_exact_modes_agree_with_the_object_walk(
    blocks, seed, kernel_fraction, comm_intensity, budget
):
    """The closed form gives the object depth-first walk's results and
    Pareto front, logs exactly the optimum and each shape's best of that
    walk's visits, and agrees with the Gray/budgeted walk and
    branch-and-bound."""
    workload = synthetic_application(
        blocks, seed=seed, kernel_fraction=kernel_fraction,
        comm_intensity=comm_intensity,
    )
    platform = paper_platform(1500, 2)
    config = EngineConfig(max_kernels_moved=budget)
    reference = object_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform, config=config
    )
    constraints = [1, max(1, reference.initial_cycles() // 2)]
    partitioner = make_partitioner(
        AlgorithmSpec.exhaustive(), workload, platform, config=config
    )
    results = partitioner.sweep(constraints)
    assert results == reference.sweep(constraints)
    assert partitioner.pareto_front() == reference.pareto_front()
    assert set(partitioner.visited) == expected_log(
        reference.visited, results[0].moved_bb_ids
    )
    table = partitioner.table
    walked = fold(
        table,
        gray_walk(table) if budget is None else budgeted_walk(table, budget),
    )
    assert_same_answer(closed_form(table, budget), walked)
    assert_same_answer(branch_and_bound(table, budget), walked)
