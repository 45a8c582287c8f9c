"""Tests for the batched scenario runner."""

import pytest

from repro.explore import WorkloadSpec
from repro.partition import TableResolver
from repro.suite import (
    ResultStore,
    Scenario,
    get_scenario,
    run_scenario,
    run_suite,
    select_scenarios,
)

#: A fast subset exercising paper + synthetic + both new workloads.
FAST = ["synth-small", "viterbi-greedy", "filterbank-greedy"]


class TestRunScenario:
    def test_result_matches_scenario_pins(self):
        scenario = get_scenario("viterbi-greedy")
        result = run_scenario(scenario)
        assert result.scenario == "viterbi-greedy"
        assert result.workload == scenario.workload.label
        assert result.algorithm == scenario.algorithm.label
        assert result.platform == scenario.platform.label
        assert result.total_cycles <= result.initial_cycles
        assert result.wall_time_seconds > 0
        assert result.timing_constraint == max(
            1, round(result.initial_cycles * scenario.constraint_fraction)
        )

    def test_rows_used_recorded_for_moved_kernels(self):
        result = run_scenario(get_scenario("viterbi-greedy"))
        assert result.kernels_moved >= 1
        assert result.rows_used >= 1

    def test_deterministic_cycles_across_runs(self):
        first = run_scenario(get_scenario("synth-small"))
        second = run_scenario(get_scenario("synth-small"))
        assert first.total_cycles == second.total_cycles
        assert first.moved_bb_ids == second.moved_bb_ids


class TestRunSuite:
    def test_subset_runs_in_order_and_records(self):
        with ResultStore(":memory:") as store:
            run = run_suite(
                select_scenarios(FAST),
                store=store,
                label="test",
                max_workers=1,
            )
            assert run.run_id is not None
            loaded = store.load_run(run.run_id)
        assert run.scenario_names() == FAST
        assert loaded.results == run.results
        assert run.fingerprint
        assert run.elapsed_seconds > 0

    def test_explicit_fingerprint_is_kept(self):
        run = run_suite(
            select_scenarios(["synth-small"]),
            max_workers=1,
            fingerprint="pinned",
        )
        assert run.fingerprint == "pinned"

    def test_empty_scenario_list_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], max_workers=1)

    def test_duplicate_scenario_names_rejected(self):
        scenario = Scenario(
            name="dup", workload=WorkloadSpec.synthetic(4, seed=1)
        )
        with pytest.raises(ValueError, match="unique"):
            run_suite([scenario, scenario], max_workers=1)

    def test_parallel_matches_serial_cycles(self):
        scenarios = select_scenarios(FAST)
        serial = run_suite(scenarios, max_workers=1)
        parallel = run_suite(scenarios, max_workers=2)
        assert [r.total_cycles for r in serial.results] == [
            r.total_cycles for r in parallel.results
        ]
        assert [r.scenario for r in parallel.results] == FAST


class TestEvaluationThroughput:
    def test_configs_per_second_recorded(self):
        result = run_scenario(get_scenario("synth-small"))
        assert result.configs_per_second > 0.0

    def test_exact_scenarios_record_pruned_subtrees(self):
        """Old stores and the committed baseline carry branch-and-bound
        pruning counts; the closed-form exact search prunes nothing, so
        new runs record 0 for every scenario, exact or not."""
        for name in ("exact-bnb-certify-34", "exact-sharded-16k", "synth-small"):
            result = run_scenario(get_scenario(name))
            assert result.pruned_subtrees == 0
            assert result.to_dict()["pruned_subtrees"] == 0

    def test_table_cache_prices_each_pair_once(self):
        """Two scenarios sharing a (workload, platform) pair build one
        packed table; the second run reuses it."""
        scenarios = select_scenarios(["synth-skewed", "synth-flat"])
        resolver = TableResolver()
        for scenario in scenarios:
            run_scenario(scenario, resolver)
        # skew-axis scenarios differ in workload, so two tables; but
        # re-running adds nothing.
        assert len(resolver.tables) == len(
            {(s.workload, s.platform) for s in scenarios}
        )
        misses = resolver.tables.counters.misses
        run_scenario(scenarios[0], resolver)
        assert resolver.tables.counters.misses == misses
