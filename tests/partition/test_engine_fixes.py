"""Tests for the greedy-move revert fix, the single-rounding invariant,
and the greedy-vs-reference differential (the seed engine's full-rescan
loop and the object greedy walk live in ``tests/oracles``)."""

import pytest

from oracles import full_rescan, object_partitioner
from repro.partition import (
    ApplicationWorkload,
    BlockWorkload,
    CostModel,
    EngineConfig,
    PartitionStep,
)
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, GreedyPartitioner
from repro.workloads import generate_dfg, make_profile, synthetic_application


def block(bb_id, freq, weight, **kwargs):
    profile = make_profile(bb_id, freq, weight, **kwargs)
    return BlockWorkload(
        bb_id=bb_id,
        exec_freq=freq,
        dfg=generate_dfg(profile),
        comm_words_in=profile.live_in_words,
        comm_words_out=profile.live_out_words,
    )


@pytest.fixture
def regressing_workload():
    """The top-weight kernel transfers so much data that moving it to the
    CGC costs more in communication than it saves in FPGA time."""
    return ApplicationWorkload(
        name="regressing",
        blocks=[
            block(1, 2000, 10, live=(200, 200)),  # top weight 20000, bad move
            block(2, 400, 40, mul_fraction=0.4),  # weight 16000, good move
            block(3, 100, 8),
        ],
    )


class TestRegressingMoveRevert:
    def test_bad_move_is_reverted(self, regressing_workload):
        partitioner = GreedyPartitioner(regressing_workload, paper_platform(1500, 2))
        result = partitioner.run(1)  # unreachable constraint -> tries every kernel
        assert 1 in result.reverted_bb_ids
        assert 1 not in result.moved_bb_ids
        assert result.final_cycles <= result.initial_cycles
        assert result.reduction_percent >= 0.0

    def test_totals_never_regress(self, regressing_workload):
        partitioner = GreedyPartitioner(regressing_workload, paper_platform(1500, 2))
        result = partitioner.run(1)
        totals = [result.initial_cycles] + [s.total_cycles for s in result.steps]
        assert totals == sorted(totals, reverse=True)

    def test_commit_always_ablation_restores_seed_behaviour(
        self, regressing_workload
    ):
        config = EngineConfig(allow_regressing_moves=True)
        partitioner = GreedyPartitioner(
            regressing_workload, paper_platform(1500, 2), config=config
        )
        result = partitioner.run(1)
        # The literal Figure 2 loop commits the bad move and pays for it.
        assert result.moved_bb_ids[0] == 1
        assert result.reverted_bb_ids == []
        assert result.final_cycles > result.initial_cycles
        assert result.reduction_percent < 0.0

    def test_full_rescan_mode_also_reverts(self, regressing_workload):
        result = full_rescan(
            CostModel(regressing_workload, paper_platform(1500, 2)), 1
        )
        assert 1 in result.reverted_bb_ids
        assert result.final_cycles <= result.initial_cycles

    def test_paper_workloads_never_regress(self, ofdm, jpeg):
        for workload in (ofdm, jpeg):
            result = GreedyPartitioner(
                workload, paper_platform(1500, 2)
            ).run(1)
            assert result.final_cycles <= result.initial_cycles
            assert result.reduction_percent >= 0.0


class TestComponentRounding:
    def test_inconsistent_step_rejected(self):
        with pytest.raises(ValueError):
            PartitionStep(1, 2, 3, 4, 10, True)  # 2+3+4 != 10

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_components_sum_exactly_across_random_workloads(self, seed):
        workload = synthetic_application(
            20, seed=seed, comm_intensity=0.9, kernel_fraction=0.6
        )
        partitioner = GreedyPartitioner(workload, paper_platform(1500, 2))
        initial = partitioner.initial_cycles()
        for constraint in (1, initial // 2, (initial * 9) // 10):
            result = partitioner.run(max(1, constraint))
            for step in result.steps:
                assert (
                    step.fpga_cycles + step.cgc_fpga_cycles + step.comm_cycles
                    == step.total_cycles
                )
            assert (
                result.fpga_cycles + result.cycles_in_cgc + result.comm_cycles
                == result.final_cycles
            )
            result.validate()

    def test_eq2_recomposition_exact_on_paper_workload(self, ofdm):
        result = GreedyPartitioner(ofdm, paper_platform(1500, 2)).run(1)
        assert (
            result.fpga_cycles + result.cycles_in_cgc + result.comm_cycles
            == result.final_cycles
        )


class TestIncrementalDifferential:
    @pytest.mark.parametrize("allow_regressing", [False, True])
    def test_identical_results_on_paper_workloads(
        self, ofdm, jpeg, allow_regressing
    ):
        config = EngineConfig(allow_regressing_moves=allow_regressing)
        for workload in (ofdm, jpeg):
            for afpga, cgc_count in ((1500, 2), (5000, 3)):
                platform = paper_platform(afpga, cgc_count)
                inc = GreedyPartitioner(workload, platform, config=config)
                model = CostModel(workload, platform)
                initial = inc.initial_cycles()
                constraints = [1, initial // 2, (initial * 3) // 4, initial * 2]
                results = inc.sweep(constraints)
                assert results == [
                    full_rescan(model, constraint, config)
                    for constraint in constraints
                ]
                reference = object_partitioner(
                    AlgorithmSpec.greedy(), workload, platform,
                    config=config,
                )
                assert results == reference.sweep(constraints)

    def test_incremental_needs_fewer_evaluations(self, ofdm):
        platform = paper_platform(1500, 2)
        inc = GreedyPartitioner(ofdm, platform)
        full = CostModel(ofdm, platform)
        initial = inc.initial_cycles()
        constraints = [1, initial // 2, (initial * 3) // 4]
        inc.sweep(constraints)
        for constraint in constraints:
            full_rescan(full, constraint)
        # Contributions are computed once per block either way (the
        # evaluation counter tracks cache misses); the rescan blow-up
        # shows in how often the aggregation *consults* the model.
        assert (
            full.stats.contribution_lookups
            > 5 * inc.stats.contribution_lookups
        )
        assert (
            full.stats.block_cost_evaluations
            == inc.stats.block_cost_evaluations
        )

    def test_strict_mode_raises_consistently_on_retry(self):
        from repro.analysis import profile_cdfg
        from repro.ir import cdfg_from_source
        from repro.partition import workload_from_cdfg

        src = (
            "int f(int n) { int s = 0; "
            "for (int i = 1; i <= n; i++) { s += 100 / i; } return s; }"
        )
        cdfg = cdfg_from_source(src)
        workload = workload_from_cdfg(cdfg, profile_cdfg(cdfg, "f", 10), "div")
        partitioner = GreedyPartitioner(
            workload,
            paper_platform(1500, 2),
            config=EngineConfig(skip_unsupported_kernels=False),
        )
        with pytest.raises(ValueError):
            partitioner.run(1)
        # The unsupported kernel must still be pending: retrying raises
        # again instead of silently dropping it from the trajectory.
        with pytest.raises(ValueError):
            partitioner.run(1)

    def test_sweep_warm_starts_from_cached_trajectory(self, ofdm):
        partitioner = GreedyPartitioner(ofdm, paper_platform(1500, 2))
        first = partitioner.run(1)  # builds the whole trajectory
        evals_after_first = partitioner.stats.block_cost_evaluations
        entries_after_first = len(partitioner.trajectory.entries)
        second = partitioner.run(first.initial_cycles // 2)
        # Replay costs zero new block-cost evaluations and reads the
        # cached trajectory instead of extending it.
        assert partitioner.stats.block_cost_evaluations == evals_after_first
        assert len(partitioner.trajectory.entries) == entries_after_first
        fresh = GreedyPartitioner(ofdm, paper_platform(1500, 2)).run(
            first.initial_cycles // 2
        )
        assert second == fresh
