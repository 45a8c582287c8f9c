"""Tests for the pluggable partitioning-algorithm subsystem."""

import pytest

from oracles import expected_log, object_partitioner
from repro.partition import ApplicationWorkload, BlockWorkload, EngineConfig
from repro.partition.packed import PackedCostTable
from repro.platform import paper_platform
from repro.search import (
    ALGORITHM_NAMES,
    AlgorithmSpec,
    AnnealingPartitioner,
    ExhaustivePartitioner,
    GreedyPartitioner,
    MultiStartPartitioner,
    make_partitioner,
)
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


@pytest.fixture(scope="module")
def skewed_workload():
    """The greedy trap: the heaviest kernel (Eq. 1 order) saves almost
    nothing because its communication nearly cancels its FPGA time, while
    two lighter kernels save an order of magnitude more.  Under a
    two-move budget, weight-order greedy spends a slot on BB 1."""
    return ApplicationWorkload(
        name="skewed",
        blocks=[
            block(1, 3000, 20, width=1.0, live=(55, 55)),
            block(2, 900, 50, mul_fraction=0.5, live=(2, 1)),
            block(3, 800, 48, mul_fraction=0.5, live=(2, 1)),
            block(4, 50, 6),
        ],
    )


@pytest.fixture(scope="module")
def platform():
    return paper_platform(1500, 2)


ALL_SPECS = [
    AlgorithmSpec.greedy(),
    AlgorithmSpec.exhaustive(),
    AlgorithmSpec.multi_start(),
    AlgorithmSpec.annealing(),
]


class TestAlgorithmSpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(name="tabu")

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: AlgorithmSpec.exhaustive(max_candidates=0),
             "max_candidates must be >= 1"),
            (lambda: AlgorithmSpec.multi_start(restarts=0),
             "restarts must be >= 1"),
            (lambda: AlgorithmSpec.multi_start(jitter=1.0),
             "jitter must be in"),
            (lambda: AlgorithmSpec.annealing(cooling=2),
             "cooling must be in"),
            (lambda: AlgorithmSpec.annealing(initial_temp=0.0),
             "initial_temp must be positive"),
            (lambda: AlgorithmSpec.annealing(temp_levels=0),
             "temp_levels must be >= 1"),
            (lambda: AlgorithmSpec.annealing(steps_per_temp=0),
             "steps_per_temp must be >= 1"),
            (lambda: AlgorithmSpec(name="annealing",
                                   params=(("cooling", "fast"),)),
             "cooling must be in"),
        ],
    )
    def test_out_of_range_parameters_rejected_when_built(
        self, build, message
    ):
        """Ranges are checked where a spec enters (CLI, job requests,
        grids), not when a worker builds the partitioner."""
        with pytest.raises(ValueError, match=message):
            build()

    def test_factories_cover_registry(self):
        assert sorted(spec.name for spec in ALL_SPECS) == sorted(
            ALGORITHM_NAMES
        )

    def test_default_labels_are_bare_names(self):
        for spec in ALL_SPECS:
            assert spec.label == spec.name

    def test_non_default_params_appear_in_label(self):
        assert AlgorithmSpec.annealing(seed=3).label == "annealing[seed=3]"
        assert AlgorithmSpec.multi_start().label == "multi_start"
        assert "restarts=16" in AlgorithmSpec.multi_start(restarts=16).label

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = AlgorithmSpec.annealing(seed=3)
        assert len({spec, AlgorithmSpec.annealing(seed=3)}) == 1
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_build_dispatches_to_classes(self, skewed_workload, platform):
        classes = {
            "greedy": GreedyPartitioner,
            "exhaustive": ExhaustivePartitioner,
            "multi_start": MultiStartPartitioner,
            "annealing": AnnealingPartitioner,
        }
        for spec in ALL_SPECS:
            partitioner = make_partitioner(spec, skewed_workload, platform)
            assert isinstance(partitioner, classes[spec.name])
            assert partitioner.algorithm == spec.name


def object_greedy(workload, platform, config=None):
    """The object greedy walk in ``tests/oracles`` (the reference)."""
    return object_partitioner(
        AlgorithmSpec.greedy(), workload, platform, config=config
    )


class TestGreedyDifferential:
    """The protocol greedy must be bit-identical to the object walk."""

    @pytest.mark.parametrize("afpga,cgc_count", [(1500, 2), (5000, 3)])
    def test_identical_on_paper_workloads(self, ofdm, jpeg, afpga, cgc_count):
        for workload in (ofdm, jpeg):
            plat = paper_platform(afpga, cgc_count)
            reference = object_greedy(workload, plat)
            greedy = GreedyPartitioner(workload, plat)
            initial = greedy.initial_cycles()
            constraints = [1, initial // 2, (initial * 3) // 4, initial * 2]
            assert greedy.sweep(constraints) == reference.sweep(constraints)
            assert greedy.visited == reference.visited

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_on_synthetic_workloads(self, seed, platform):
        workload = synthetic_application(
            20, seed=seed, comm_intensity=0.8, kernel_fraction=0.6
        )
        reference = object_greedy(workload, platform)
        greedy = GreedyPartitioner(workload, platform)
        initial = greedy.initial_cycles()
        constraints = [1, initial // 2, (initial * 9) // 10]
        assert greedy.sweep(constraints) == reference.sweep(constraints)

    def test_identical_under_budget_and_no_stop(self, ofdm):
        for config in (
            EngineConfig(max_kernels_moved=2),
            EngineConfig(stop_at_constraint=False),
            EngineConfig(allow_regressing_moves=True),
        ):
            plat = paper_platform(1500, 2)
            reference = object_greedy(
                ofdm, plat, config=EngineConfig(**vars(config))
            )
            greedy = GreedyPartitioner(
                ofdm, plat, config=EngineConfig(**vars(config))
            )
            assert greedy.run(1) == reference.run(1)

    def test_identical_on_the_skewed_traps(self, skewed_workload, platform):
        """The handmade trap, and the same trap grown on a synthetic
        base (the two scenarios of ``benchmarks/bench_search.py``)."""
        base = synthetic_application(
            10, seed=8, kernel_fraction=0.5, comm_intensity=0.1
        )
        grown = ApplicationWorkload(
            name="skewed-generated",
            blocks=[
                *base.blocks,
                block(90, 2600, 24, width=1.0, live=(55, 55)),
                block(91, 700, 52, mul_fraction=0.5, live=(2, 1)),
                block(92, 600, 50, mul_fraction=0.5, live=(2, 1)),
            ],
        )
        config = dict(stop_at_constraint=False, max_kernels_moved=2)
        for workload in (skewed_workload, grown):
            reference = object_greedy(
                workload, platform, config=EngineConfig(**config)
            )
            greedy = GreedyPartitioner(
                workload, platform, config=EngineConfig(**config)
            )
            assert greedy.run(1) == reference.run(1), workload.name

    def test_strict_unsupported_mode_raises(self, platform):
        from repro.analysis import profile_cdfg
        from repro.ir import cdfg_from_source
        from repro.partition import workload_from_cdfg

        src = (
            "int f(int n) { int s = 0; "
            "for (int i = 1; i <= n; i++) { s += 100 / i; } return s; }"
        )
        cdfg = cdfg_from_source(src)
        workload = workload_from_cdfg(cdfg, profile_cdfg(cdfg, "f", 10), "div")
        greedy = GreedyPartitioner(
            workload,
            platform,
            config=EngineConfig(skip_unsupported_kernels=False),
        )
        with pytest.raises(ValueError):
            greedy.run(1)


class TestExhaustive:
    def test_lower_bounds_every_heuristic(self, platform):
        """On <= 12-kernel inputs the enumerated optimum is a floor."""
        for seed in (0, 1, 2):
            workload = synthetic_application(
                12, seed=seed, comm_intensity=0.8, kernel_fraction=0.8
            )
            finals = {}
            for spec in ALL_SPECS:
                partitioner = make_partitioner(
                    spec,
                    workload,
                    platform,
                    config=EngineConfig(stop_at_constraint=False),
                )
                finals[spec.name] = partitioner.run(1).final_cycles
            assert finals["exhaustive"] == min(finals.values())

    def test_lower_bounds_under_budget(self, skewed_workload, platform):
        finals = {}
        for spec in ALL_SPECS:
            partitioner = make_partitioner(
                spec,
                skewed_workload,
                platform,
                config=EngineConfig(
                    stop_at_constraint=False, max_kernels_moved=2
                ),
            )
            result = partitioner.run(1)
            assert result.kernels_moved <= 2
            finals[spec.name] = result.final_cycles
        assert finals["exhaustive"] == min(finals.values())

    def test_candidate_limit_guard(self, platform):
        workload = synthetic_application(
            24, seed=1, kernel_fraction=1.0, comm_intensity=0.2
        )
        # An explicit cap below the workload's supported kernel count is
        # rejected at construction, naming both numbers.
        with pytest.raises(ValueError, match=r"24 supported.*max_candidates=4"):
            ExhaustivePartitioner(workload, platform, max_candidates=4)

    def test_default_cap_guard_at_run_time(self, skewed_workload, platform):
        # More supported kernels than the default cap of 256: rejected
        # when the run reaches the search.  An injected hand-built table
        # stands in for a workload that large.
        n = ExhaustivePartitioner.DEFAULT_MAX_CANDIDATES + 1
        table = PackedCostTable(
            workload_name=skewed_workload.name,
            platform_name=platform.name,
            clock_ratio=3,
            initial_ticks=10 * n,
            bb_ids=tuple(range(n)),
            fpga_ticks=(2,) * n,
            cgc_ticks=(1,) * n,
            comm_ticks=(0,) * n,
            move_delta=(-1,) * n,
            cgc_rows=(1,) * n,
            weights=(1,) * n,
            skipped_bb_ids=(),
            candidates=tuple((i, i) for i in range(n)),
        )
        partitioner = ExhaustivePartitioner(
            skewed_workload, platform, packed_table=table
        )
        with pytest.raises(ValueError, match="exceed the exhaustive limit"):
            partitioner.run(1)
        raised = ExhaustivePartitioner(
            skewed_workload, platform, packed_table=table, max_candidates=n
        )
        assert raised.run(1).kernels_moved == n

    def test_visits_one_configuration_per_shape(
        self, skewed_workload, platform
    ):
        # The closed form logs the all-FPGA corner, the optimum and one
        # representative per (moved, rows) shape; on this 4-kernel
        # workload the object walk visits all 2^4 subsets, and each
        # logged configuration is the best of its shape among them.
        partitioner = ExhaustivePartitioner(skewed_workload, platform)
        result = partitioner.run(1)
        reference = object_partitioner(
            AlgorithmSpec.exhaustive(), skewed_workload, platform
        )
        reference.run(1)
        assert len(reference.visited) == 2 ** len(partitioner.table)
        assert set(partitioner.visited) == expected_log(
            reference.visited, result.moved_bb_ids
        )
        assert len(partitioner.visited) < len(reference.visited)


class TestHeuristics:
    def test_never_worse_than_all_fpga(self, platform):
        for seed in (0, 3):
            workload = synthetic_application(
                16, seed=seed, comm_intensity=0.9, kernel_fraction=0.7
            )
            for spec in ALL_SPECS:
                partitioner = make_partitioner(
                    spec,
                    workload,
                    platform,
                    config=EngineConfig(stop_at_constraint=False),
                )
                result = partitioner.run(1)
                assert result.final_cycles <= result.initial_cycles
                assert result.reduction_percent >= 0.0

    def test_heuristics_never_worse_than_greedy(self, platform):
        """Multi-start restart 0 and annealing's warm start are the
        greedy subset, so neither can end up above greedy."""
        for seed in (0, 1, 4):
            workload = synthetic_application(
                14, seed=seed, comm_intensity=0.8, kernel_fraction=0.7
            )
            config = lambda: EngineConfig(stop_at_constraint=False)  # noqa: E731
            greedy = GreedyPartitioner(workload, platform, config=config())
            greedy_final = greedy.run(1).final_cycles
            for spec in (AlgorithmSpec.multi_start(), AlgorithmSpec.annealing()):
                partitioner = make_partitioner(
                    spec, workload, platform, config=config()
                )
                assert partitioner.run(1).final_cycles <= greedy_final

    def test_heuristics_beat_budgeted_greedy_on_skewed_workload(
        self, skewed_workload, platform
    ):
        """The acceptance scenario: a two-move budget makes weight-order
        greedy provably suboptimal; the randomized heuristics recover the
        exhaustive optimum."""
        finals = {}
        for spec in ALL_SPECS:
            partitioner = make_partitioner(
                spec,
                skewed_workload,
                platform,
                config=EngineConfig(
                    stop_at_constraint=False, max_kernels_moved=2
                ),
            )
            finals[spec.name] = partitioner.run(1).final_cycles
        assert finals["multi_start"] < finals["greedy"]
        assert finals["annealing"] < finals["greedy"]
        assert finals["multi_start"] == finals["exhaustive"]
        assert finals["annealing"] == finals["exhaustive"]

    def test_deterministic_per_seed(self, skewed_workload, platform):
        def run(spec):
            partitioner = make_partitioner(
                spec, skewed_workload, platform,
                config=EngineConfig(stop_at_constraint=False),
            )
            return partitioner.run(1)

        for factory in (AlgorithmSpec.multi_start, AlgorithmSpec.annealing):
            assert run(factory(seed=7)) == run(factory(seed=7))

    def test_results_validate_and_components_sum(self, skewed_workload, platform):
        for spec in ALL_SPECS:
            partitioner = make_partitioner(spec, skewed_workload, platform)
            result = partitioner.run(1)
            result.validate()
            for step in result.steps:
                assert (
                    step.fpga_cycles + step.cgc_fpga_cycles + step.comm_cycles
                    == step.total_cycles
                )

    def test_parameter_validation(self, skewed_workload, platform):
        with pytest.raises(ValueError):
            MultiStartPartitioner(skewed_workload, platform, restarts=0)
        with pytest.raises(ValueError):
            MultiStartPartitioner(skewed_workload, platform, jitter=1.5)
        with pytest.raises(ValueError):
            AnnealingPartitioner(skewed_workload, platform, cooling=1.0)
        with pytest.raises(ValueError):
            AnnealingPartitioner(skewed_workload, platform, initial_temp=-1.0)
        with pytest.raises(ValueError):
            AnnealingPartitioner(skewed_workload, platform, temp_levels=0)
        with pytest.raises(ValueError):
            ExhaustivePartitioner(skewed_workload, platform, max_candidates=0)


class TestProtocolBehaviour:
    def test_invalid_constraint_rejected(self, skewed_workload, platform):
        for spec in ALL_SPECS:
            partitioner = make_partitioner(spec, skewed_workload, platform)
            with pytest.raises(ValueError):
                partitioner.run(0)

    def test_met_constraint_needs_no_search(self, skewed_workload, platform):
        for spec in ALL_SPECS:
            partitioner = make_partitioner(spec, skewed_workload, platform)
            initial = partitioner.initial_cycles()
            result = partitioner.run(initial)
            assert result.constraint_met
            assert result.kernels_moved == 0
            assert result.final_cycles == initial

    def test_config_freeze_after_run(self, skewed_workload, platform):
        partitioner = GreedyPartitioner(
            skewed_workload, platform, config=EngineConfig()
        )
        partitioner.run(1)
        partitioner.config.max_kernels_moved = 1
        with pytest.raises(ValueError, match="mutated"):
            partitioner.run(1)

    def test_config_mutation_before_first_run_is_honoured(self, ofdm):
        """Flags changed between construction and the first run must be
        used, not silently baked out (regression: the cost model was
        built eagerly in __init__)."""
        plat = paper_platform(1500, 2)
        config = EngineConfig()
        greedy = GreedyPartitioner(ofdm, plat, config=config)
        config.charge_single_partition_reconfig = True
        charged = GreedyPartitioner(
            ofdm, plat,
            config=EngineConfig(charge_single_partition_reconfig=True),
        )
        assert greedy.run(1) == charged.run(1)

    def test_annealing_with_zero_move_budget(self, skewed_workload, platform):
        """budget=0 must yield the all-FPGA mapping, not crash on an
        empty swap pool (regression)."""
        partitioner = AnnealingPartitioner(
            skewed_workload, platform,
            config=EngineConfig(
                stop_at_constraint=False, max_kernels_moved=0
            ),
        )
        result = partitioner.run(1)
        assert result.kernels_moved == 0
        assert result.final_cycles == result.initial_cycles

    def test_every_algorithm_visits_the_all_fpga_corner(
        self, skewed_workload, platform
    ):
        """The 0-move configuration is always priced, so every front
        includes the all-FPGA corner (regression: greedy/multi-start
        omitted it)."""
        for spec in ALL_SPECS:
            partitioner = make_partitioner(spec, skewed_workload, platform)
            partitioner.run(1)
            assert any(
                v.moved_kernel_count == 0 for v in partitioner.visited
            ), spec.name
            assert any(
                p.moved_kernel_count == 0 for p in partitioner.pareto_front()
            ), spec.name

    def test_sweep_reuses_cached_search_state(self, skewed_workload, platform):
        partitioner = AnnealingPartitioner(
            skewed_workload, platform,
            config=EngineConfig(stop_at_constraint=False),
        )
        first = partitioner.run(1)
        evaluations = partitioner.stats.block_cost_evaluations
        second = partitioner.run(2)
        # The annealing walk is constraint-independent and cached: the
        # second run replays the best subset with zero new evaluations
        # beyond the replay's own contribution lookups.
        assert partitioner.stats.block_cost_evaluations - evaluations < 50
        assert second.moved_bb_ids == first.moved_bb_ids
