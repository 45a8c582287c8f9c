"""Tests for the per-block cost model, the object ``CostState`` reference
(``tests/oracles``) and the EngineConfig freeze-after-run contract."""

import pytest

from oracles import CostState
from repro.partition import CostModel, EngineConfig
from repro.platform import paper_platform
from repro.search import GreedyPartitioner
from repro.workloads import synthetic_application


@pytest.fixture(scope="module")
def workload():
    return synthetic_application(
        15, seed=4, comm_intensity=0.7, kernel_fraction=0.8
    )


@pytest.fixture(scope="module")
def model(workload):
    return CostModel(workload, paper_platform(1500, 2))


class TestCostModel:
    def test_initial_ticks_match_full_sum(self, workload, model):
        expected = sum(
            model.contribution(block).fpga_ticks for block in workload.blocks
        )
        assert model.initial_ticks() == expected

    def test_contribution_cached_but_counted(self, workload, model):
        before_lookups = model.stats.contribution_lookups
        before_evals = model.stats.block_cost_evaluations
        mapped = model.stats.blocks_mapped
        block = workload.blocks[0]
        model.contribution(block)
        model.contribution(block)
        # Every call counts as a lookup; evaluation/mapping happen at
        # most once (cache hits must not inflate the evaluation count).
        assert model.stats.contribution_lookups == before_lookups + 2
        assert model.stats.block_cost_evaluations <= before_evals + 1
        assert model.stats.blocks_mapped <= mapped + 1

    def test_cache_hits_do_not_count_as_evaluations(self, workload):
        from repro.partition import CostModel
        from repro.platform import paper_platform

        fresh = CostModel(workload, paper_platform(1500, 2))
        block = workload.blocks[0]
        for _ in range(5):
            fresh.contribution(block)
        assert fresh.stats.contribution_lookups == 5
        assert fresh.stats.block_cost_evaluations == 1
        assert fresh.stats.blocks_mapped == 1

    def test_split_ticks_components_sum(self, model):
        for ticks in ((10, 11, 12), (1, 1, 1), (0, 0, 5), (7, 0, 0)):
            fpga, cgc, comm, total = model.split_ticks(*ticks)
            assert fpga + cgc + comm == total
            assert total == model.ticks_to_cycles(sum(ticks))

    def test_rows_metric_populated(self, workload, model):
        rows = [
            model.contribution(b).cgc_rows
            for b in workload.blocks
            if model.contribution(b).supported
        ]
        assert rows and all(r >= 1 for r in rows)


class TestCostState:
    def test_apply_revert_round_trip(self, workload, model):
        state = CostState(model)
        start = state.ticks
        kernel = next(
            b
            for b in model.kernel_candidates()
            if model.contribution(b).supported
        )
        delta = state.apply_move(kernel.bb_id)
        assert state.total_ticks == model.initial_ticks() + delta
        assert kernel.bb_id in state.moved
        state.revert_move(kernel.bb_id)
        assert state.ticks == start
        assert not state.moved

    def test_propose_matches_apply(self, model):
        state = CostState(model)
        kernel = next(
            b
            for b in model.kernel_candidates()
            if model.contribution(b).supported
        )
        proposed = state.propose_move(kernel.bb_id)
        assert state.apply_move(kernel.bb_id) == proposed
        # Toggling back is the exact negation.
        assert state.propose_move(kernel.bb_id) == -proposed

    def test_double_apply_rejected(self, model):
        state = CostState(model)
        kernel = next(
            b
            for b in model.kernel_candidates()
            if model.contribution(b).supported
        )
        state.apply_move(kernel.bb_id)
        with pytest.raises(ValueError):
            state.apply_move(kernel.bb_id)

    def test_revert_unmoved_rejected(self, model):
        with pytest.raises(ValueError):
            CostState(model).revert_move(999)

    def test_incremental_matches_rescan(self, workload, model):
        """Applying moves one by one equals recomputing from scratch."""
        state = CostState(model)
        supported = [
            b.bb_id
            for b in model.kernel_candidates()
            if model.contribution(b).supported
        ]
        for bb_id in supported:
            state.apply_move(bb_id)
        fpga = sum(
            model.contribution(b).fpga_ticks
            for b in workload.blocks
            if b.bb_id not in state.moved
        )
        cgc = sum(
            model.contribution_by_id(b).cgc_ticks for b in state.moved
        )
        comm = sum(
            model.contribution_by_id(b).comm_ticks for b in state.moved
        )
        assert state.ticks == (fpga, cgc, comm)

    def test_rows_used_is_max_over_moved(self, model):
        state = CostState(model)
        assert state.cgc_rows_used() == 0
        rows = []
        for kernel in model.kernel_candidates():
            if model.contribution(kernel).supported:
                state.apply_move(kernel.bb_id)
                rows.append(model.contribution(kernel).cgc_rows)
        assert state.cgc_rows_used() == max(rows)


class TestEngineConfigFreeze:
    def test_mutation_after_run_raises(self, workload):
        partitioner = GreedyPartitioner(
            workload, paper_platform(1500, 2), config=EngineConfig()
        )
        partitioner.run(1)
        partitioner.config.stop_at_constraint = False
        with pytest.raises(ValueError, match="mutated"):
            partitioner.run(1)

    def test_mutation_after_initial_cycles_raises(self, workload):
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        partitioner.initial_cycles()
        partitioner.config.charge_single_partition_reconfig = True
        with pytest.raises(ValueError, match="mutated"):
            partitioner.run(1)

    def test_mutation_before_first_run_allowed(self, workload):
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        partitioner.config.max_kernels_moved = 1
        result = partitioner.run(1)
        assert result.kernels_moved <= 1

    def test_repeat_runs_with_unchanged_config_fine(self, workload):
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        first = partitioner.run(1)
        second = partitioner.run(1)
        assert first == second

    def test_reverting_the_mutation_unfreezes(self, workload):
        """Equality, not identity: restoring the original values makes
        the config acceptable again."""
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        partitioner.run(1)
        partitioner.config.stop_at_constraint = False
        partitioner.config.stop_at_constraint = True
        partitioner.run(1)  # does not raise
