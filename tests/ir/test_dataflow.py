"""Global dataflow solver tests: liveness, reaching defs, definite assignment."""

from __future__ import annotations

import pytest

from repro.ir import (
    DefiniteAssignment,
    LivenessAnalysis,
    ReachingDefinitions,
    cdfg_from_source,
    live_variable_sets,
    reaching_definition_sets,
)

SOURCE = """
int g_sum;

int f(int n) {
    int a = 1;
    int b = 2;
    int dead = 7;
    if (n > 0) {
        a = a + b;
    } else {
        a = a - b;
    }
    g_sum = a;
    return a;
}
"""

LOOP_SOURCE = """
int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
    return acc;
}
"""


@pytest.fixture
def cfg():
    return cdfg_from_source(SOURCE, "df.c").cfg("f")


@pytest.fixture
def loop_cfg():
    return cdfg_from_source(LOOP_SOURCE, "dfloop.c").cfg("f")


class TestLiveness:
    def test_converges(self, cfg):
        result = live_variable_sets(cfg)
        assert 0 < result.iterations < 64
        assert set(result.in_sets) == set(cfg.reverse_post_order())

    def test_param_live_at_entry(self, cfg):
        result = live_variable_sets(cfg)
        assert "n" in result.live_in(cfg.entry_label)

    def test_dead_local_not_live_after_entry(self, cfg):
        result = live_variable_sets(cfg)
        assert all(
            "dead" not in result.live_out(label) for label in result.out_sets
        )

    def test_global_live_at_every_exit(self, cfg):
        result = live_variable_sets(cfg)
        for block in cfg:
            term = block.terminator
            if term is not None and term.opcode.mnemonic == "ret":
                assert "g_sum" in result.live_out(block.label)

    def test_loop_variable_live_around_backedge(self, loop_cfg):
        result = live_variable_sets(loop_cfg)
        # acc is live at the loop header: read by a later iteration.
        live_anywhere = set()
        for label in result.in_sets:
            live_anywhere |= result.live_in(label)
        assert "acc" in live_anywhere
        assert "i" in live_anywhere


class TestReachingDefinitions:
    def test_boundary_defs_for_params_and_globals(self, cfg):
        result = reaching_definition_sets(cfg)
        entry_in = result.in_sets[cfg.entry_label]
        assert ("n", "<entry>", -1) in entry_in
        assert ("g_sum", "<entry>", -1) in entry_in

    def test_both_branch_defs_reach_the_join(self, cfg):
        result = reaching_definition_sets(cfg)
        # After the if/else, two defs of `a` must reach the join block.
        ret_labels = [
            block.label
            for block in cfg
            if block.terminator is not None
            and block.terminator.opcode.mnemonic == "ret"
        ]
        assert ret_labels
        reaching_a = {
            site
            for site in result.in_sets[ret_labels[0]]
            if site[0] == "a" and site[1] != "<entry>"
        }
        assert len(reaching_a) == 2

    def test_redefinition_kills_upstream_def(self, cfg):
        result = ReachingDefinitions().solve(cfg)
        # In each RET block g_sum was just written: only that def remains.
        for block in cfg:
            writes = [
                (index, ins)
                for index, ins in enumerate(block.instructions)
                if getattr(ins.dest, "name", None) == "g_sum"
            ]
            if not writes:
                continue
            out = result.out_sets[block.label]
            sites = {site for site in out if site[0] == "g_sum"}
            assert sites == {("g_sum", block.label, writes[-1][0])}


class TestDefiniteAssignment:
    def test_locals_assigned_after_entry_block(self, cfg):
        result = DefiniteAssignment().solve(cfg)
        out = result.out_sets[cfg.entry_label]
        assert {"a", "b", "dead"} <= out

    def test_must_meet_is_intersection(self):
        cdfg = cdfg_from_source(
            """
            int f(int n) {
                int x = 0;
                int y = 0;
                if (n > 0) { x = 1; } else { y = 2; }
                return x + y;
            }
            """
        )
        cfg = cdfg.cfg("f")
        result = DefiniteAssignment().solve(cfg)
        # x and y are written before the branch too, so both survive the
        # join; n (param) is always assigned.
        for label in result.in_sets:
            if label == cfg.entry_label:
                continue
            assert "n" in result.in_sets[label]

    def test_liveness_agrees_with_dfg_live_in(self, cfg):
        # The per-block DFG computes its own live_in (upward-exposed
        # scalar reads); the global analysis' gen must contain it.
        analysis = LivenessAnalysis()
        result = analysis.solve(cfg)
        for block in cfg:
            gen = analysis.gen(block)
            assert gen <= result.live_in(block.label) | gen


class TestConvergence:
    @pytest.mark.parametrize(
        "analysis", [LivenessAnalysis, ReachingDefinitions, DefiniteAssignment]
    )
    def test_sweep_budget_exhausted_raises(self, loop_cfg, analysis):
        with pytest.raises(RuntimeError, match="did not converge"):
            analysis().solve(loop_cfg, max_iterations=1)
        assert analysis().solve(loop_cfg).iterations > 1
