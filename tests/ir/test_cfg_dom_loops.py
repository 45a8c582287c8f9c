"""CFG structure, dominators, natural loops and CDFG numbering tests."""

import pytest
from nx_views import to_networkx

from repro.ir import (
    DominatorTree,
    LoopForest,
    cdfg_from_source,
)

LOOPY = """
void f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            s = s + i * j;
        }
        if (s > 100) {
            s = s - 100;
        }
    }
    while (s > 0) {
        s = s - 3;
    }
}
"""


@pytest.fixture(scope="module")
def loopy_cfg():
    return cdfg_from_source(LOOPY).cfg("f")


class TestCFG:
    def test_entry_is_first(self, loopy_cfg):
        assert loopy_cfg.entry_label == loopy_cfg.reverse_post_order()[0]

    def test_rpo_covers_reachable(self, loopy_cfg):
        assert set(loopy_cfg.reverse_post_order()) == loopy_cfg.reachable_labels()

    def test_predecessors_inverse_of_successors(self, loopy_cfg):
        for label in loopy_cfg.blocks:
            for succ in loopy_cfg.successors(label):
                assert label in loopy_cfg.predecessors(succ)

    def test_exit_labels_are_ret(self, loopy_cfg):
        exits = loopy_cfg.exit_labels()
        assert exits
        from repro.ir import Opcode

        for label in exits:
            assert loopy_cfg.block(label).terminator.opcode is Opcode.RET

    def test_networkx_roundtrip(self, loopy_cfg):
        graph = to_networkx(loopy_cfg)
        assert graph.number_of_nodes() == len(loopy_cfg)

    def test_verify_passes(self, loopy_cfg):
        loopy_cfg.verify()


class TestDominators:
    def test_entry_dominates_everything(self, loopy_cfg):
        dom = DominatorTree(loopy_cfg)
        for label in loopy_cfg.reachable_labels():
            assert dom.dominates(loopy_cfg.entry_label, label)

    def test_self_domination(self, loopy_cfg):
        dom = DominatorTree(loopy_cfg)
        for label in loopy_cfg.reachable_labels():
            assert dom.dominates(label, label)

    def test_entry_has_no_idom(self, loopy_cfg):
        dom = DominatorTree(loopy_cfg)
        assert dom.immediate_dominator(loopy_cfg.entry_label) is None

    def test_idom_dominates(self, loopy_cfg):
        dom = DominatorTree(loopy_cfg)
        for label in loopy_cfg.reachable_labels():
            idom = dom.immediate_dominator(label)
            if idom is not None:
                assert dom.dominates(idom, label)

    def test_dominator_chain_ends_at_entry(self, loopy_cfg):
        dom = DominatorTree(loopy_cfg)
        for label in loopy_cfg.reachable_labels():
            chain = dom.dominators_of(label)
            assert chain[-1] == loopy_cfg.entry_label

    def test_loop_header_dominates_body(self, loopy_cfg):
        dom = DominatorTree(loopy_cfg)
        forest = LoopForest(loopy_cfg, dom)
        for loop in forest.loops:
            for label in loop.body:
                assert dom.dominates(loop.header, label)


class TestLoops:
    def test_loop_count(self, loopy_cfg):
        forest = LoopForest(loopy_cfg)
        assert forest.loop_count == 3  # two nested fors + one while

    def test_nesting_depth(self, loopy_cfg):
        forest = LoopForest(loopy_cfg)
        depths = {
            label: forest.loop_depth(label) for label in loopy_cfg.blocks
        }
        assert max(depths.values()) == 2  # inner for body

    def test_innermost_loop_smallest(self, loopy_cfg):
        forest = LoopForest(loopy_cfg)
        inner_body = next(
            lab for lab, d in (
                (label, forest.loop_depth(label)) for label in loopy_cfg.blocks
            ) if d == 2
        )
        loop = forest.innermost_loop(inner_body)
        assert loop is not None
        sizes = [x.size for x in forest.loops if x.contains(inner_body)]
        assert loop.size == min(sizes)

    def test_entry_not_in_loop(self, loopy_cfg):
        forest = LoopForest(loopy_cfg)
        assert forest.loop_depth(loopy_cfg.entry_label) == 0

    def test_back_edges_recorded(self, loopy_cfg):
        forest = LoopForest(loopy_cfg)
        for loop in forest.loops:
            assert loop.back_edges
            for tail, head in loop.back_edges:
                assert head == loop.header
                assert loop.contains(tail)

    def test_no_loops_in_straightline(self):
        cfg = cdfg_from_source("int f(int x) { return x + 1; }").cfg("f")
        assert LoopForest(cfg).loop_count == 0


class TestCDFGNumbering:
    def test_ids_dense_from_one(self, sample_cdfg):
        ids = [b.bb_id for b in sample_cdfg.all_blocks()]
        assert ids == list(range(1, sample_cdfg.block_count + 1))

    def test_id_lookup_roundtrip(self, sample_cdfg):
        for bb_id in range(1, sample_cdfg.block_count + 1):
            assert sample_cdfg.block_by_id(bb_id).bb_id == bb_id

    def test_numbering_deterministic(self):
        from tests.conftest import SAMPLE_SOURCE

        a = cdfg_from_source(SAMPLE_SOURCE)
        b = cdfg_from_source(SAMPLE_SOURCE)
        assert [str(k) for k in a.all_block_keys()] == [
            str(k) for k in b.all_block_keys()
        ]

    def test_statistics_cover_all_blocks(self, sample_cdfg):
        stats = sample_cdfg.statistics()
        assert set(stats) == set(range(1, sample_cdfg.block_count + 1))

    def test_verify(self, sample_cdfg):
        sample_cdfg.verify()


# ----------------------------------------------------------------------
# The linear-time analyses against quadratic, set-based references
# ----------------------------------------------------------------------
PROGRAMS = [
    f"{name}{suffix}"
    for name in ["jpeg", "ofdm", *(f"minic-{seed}" for seed in range(12))]
    for suffix in ("", "-opt")
]


@pytest.fixture(scope="module", params=PROGRAMS)
def program_cfgs(request):
    """Every CFG of JPEG, OFDM or a generated program, raw or optimized."""
    from repro.ir import optimize_cdfg
    from repro.workloads import jpeg_source, ofdm_source
    from repro.workloads.synthetic import synthetic_program_source

    name, optimized, _ = request.param.partition("-opt")
    if name == "jpeg":
        source = jpeg_source()
    elif name == "ofdm":
        source = ofdm_source()
    else:
        seed = int(name.removeprefix("minic-"))
        source = synthetic_program_source(seed, 2 + seed % 7)
    cdfg = cdfg_from_source(source, f"{name}.c")
    if optimized:
        optimize_cdfg(cdfg)
    return list(cdfg.cfgs.values())


def reference_dominators(cfg):
    """dom(n) = {n} ∪ ⋂ dom(p) over reachable predecessors, to a fixed point."""
    reachable = cfg.reachable_labels()
    dom = {label: set(reachable) for label in reachable}
    dom[cfg.entry_label] = {cfg.entry_label}
    changed = True
    while changed:
        changed = False
        for label in reachable - {cfg.entry_label}:
            preds = [p for p in cfg.predecessors(label) if p in reachable]
            new = {label} | set.intersection(*(dom[p] for p in preds))
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


def reference_idom(dom, entry):
    """The strict dominator closest to each block: the one with one
    fewer dominator than the block itself."""
    idom = {entry: entry}
    for label, dominators in dom.items():
        if label != entry:
            (closest,) = [
                d for d in dominators - {label}
                if len(dom[d]) == len(dominators) - 1
            ]
            idom[label] = closest
    return idom


def reference_loops(cfg, dom):
    """Natural loops found through ``predecessors()``: header -> body."""
    loops = {}
    for tail in dom:
        for header in cfg.successors(tail):
            if header in dom and header in dom[tail]:
                body = loops.setdefault(header, {header})
                stack = [tail]
                while stack:
                    label = stack.pop()
                    if label not in body:
                        body.add(label)
                        stack.extend(cfg.predecessors(label))
    return loops


class TestLinearAnalyses:
    def test_predecessor_map_matches_predecessors(self, program_cfgs):
        for cfg in program_cfgs:
            assert cfg.predecessor_map() == {
                label: cfg.predecessors(label) for label in cfg.blocks
            }

    def test_cbr_with_equal_targets_is_one_predecessor(self):
        from repro.ir import Const, ControlFlowGraph, Instruction, Opcode

        cfg = ControlFlowGraph("g")
        head, tail = cfg.new_block(), cfg.new_block()
        head.append(
            Instruction(Opcode.CBR, operands=(Const(1),),
                        targets=(tail.label, tail.label))
        )
        tail.append(Instruction(Opcode.RET))
        assert cfg.predecessors(tail.label) == [head.label]
        assert cfg.predecessor_map() == {head.label: [], tail.label: [head.label]}

    def test_idom_matches_set_reference(self, program_cfgs):
        for cfg in program_cfgs:
            dom = reference_dominators(cfg)
            assert DominatorTree(cfg).idom == reference_idom(
                dom, cfg.entry_label
            )

    def test_loops_match_reference(self, program_cfgs):
        loops = 0
        for cfg in program_cfgs:
            forest = LoopForest(cfg)
            expected = reference_loops(cfg, reference_dominators(cfg))
            assert forest.headers() == sorted(expected)
            assert {loop.header: loop.body for loop in forest.loops} == expected
            loops += forest.loop_count
        assert loops > 0
