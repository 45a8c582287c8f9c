"""Design-space exploration subsystem tests."""

import csv
import json

import pytest

from oracles import full_rescan
from repro.explore import (
    DesignSpace,
    ExplorationReport,
    PlatformSpec,
    WorkloadSpec,
    explore,
)
from repro.explore.runner import _run_task
from repro.partition import CostModel, EngineConfig, TableResolver
from repro.reporting import (
    render_exploration,
    write_exploration_csv,
    write_exploration_json,
)
from repro.search import AlgorithmSpec


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(
        workloads=(
            WorkloadSpec.ofdm(),
            WorkloadSpec.synthetic(12, seed=3, comm_intensity=0.8),
        ),
        platforms=(
            PlatformSpec(afpga=1500, cgc_count=2),
            PlatformSpec(afpga=5000, cgc_count=3),
        ),
        constraint_fractions=(1.0, 0.6),
    )


@pytest.fixture(scope="module")
def small_report(small_space):
    return explore(small_space, max_workers=1)


class TestSpecs:
    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="mp3")

    def test_labels(self):
        # Labels equal the built workload names, so they work directly as
        # ExplorationReport query keys.
        assert WorkloadSpec.ofdm().label == "ofdm-transmitter"
        assert WorkloadSpec.jpeg().label == "jpeg-encoder"
        assert WorkloadSpec.synthetic(50, seed=4).label == "synthetic-50b-s4"
        assert PlatformSpec(afpga=1500, cgc_count=2).label.startswith("A1500-2x")

    def test_paper_app_labels_predict_built_names(self):
        for spec in (WorkloadSpec.ofdm(), WorkloadSpec.jpeg()):
            assert spec.label == spec.build().name

    def test_label_distinguishes_shape_parameters(self):
        a = WorkloadSpec.synthetic(100, seed=1, comm_intensity=0.2)
        b = WorkloadSpec.synthetic(100, seed=1, comm_intensity=0.8)
        assert a.label != b.label
        assert a.label == a.build().name  # label predicts the built name

    def test_bare_synthetic_spec_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="synthetic")

    def test_label_honours_custom_name(self):
        spec = WorkloadSpec.synthetic(8, seed=1, name="app")
        assert spec.label == "app"
        assert spec.build().name == "app"

    def test_workload_spec_builds(self):
        workload = WorkloadSpec.synthetic(8, seed=1).build()
        assert workload.block_count == 8

    def test_platform_spec_builds(self):
        platform = PlatformSpec(afpga=2000, cgc_count=2, clock_ratio=4).build()
        assert platform.area_budget == 2000
        assert platform.clock_ratio == 4

    def test_invalid_platform_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec(afpga=0)

    def test_specs_are_hashable(self):
        assert len({WorkloadSpec.ofdm(), WorkloadSpec.ofdm()}) == 1


class TestDesignSpace:
    def test_size_and_tasks(self, small_space):
        assert small_space.size == 2 * 2 * 2
        tasks = small_space.tasks()
        assert len(tasks) == 4  # one task per (workload, platform) pair
        assert all(t.constraint_fractions == (1.0, 0.6) for t in tasks)

    def test_grid_factory(self):
        space = DesignSpace.grid(
            [WorkloadSpec.jpeg()],
            afpga_values=(1500, 3000),
            cgc_counts=(1, 2),
            clock_ratios=(2, 3),
            constraint_fractions=(0.5,),
        )
        assert len(space.platforms) == 8
        assert space.size == 8

    def test_grid_reconfiguration_axis(self):
        space = DesignSpace.grid(
            [WorkloadSpec.ofdm()],
            afpga_values=(1500,),
            cgc_counts=(2,),
            reconfig_cycles_values=(0, 20, 80),
            constraint_fractions=(0.5,),
        )
        assert sorted(p.reconfig_cycles for p in space.platforms) == [0, 20, 80]

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(workloads=(), platforms=(PlatformSpec(),))
        with pytest.raises(ValueError):
            DesignSpace(
                workloads=(WorkloadSpec.ofdm(),),
                platforms=(PlatformSpec(),),
                constraint_fractions=(),
            )
        with pytest.raises(ValueError):
            DesignSpace(
                workloads=(WorkloadSpec.ofdm(),),
                platforms=(PlatformSpec(),),
                constraint_fractions=(0.0,),
            )


class TestExplore:
    def test_grid_order_and_size(self, small_space, small_report):
        assert small_report.size == small_space.size
        assert small_report.tasks_run == 4
        # Grid order: workloads x platforms x fractions.
        first = small_report.results[0]
        assert first.workload == "ofdm-transmitter"
        assert first.afpga == 1500
        assert first.constraint_fraction == 1.0

    def test_fraction_one_needs_no_moves(self, small_report):
        for result in small_report.results:
            if result.constraint_fraction == 1.0:
                assert result.constraint_met
                assert result.kernels_moved == 0
                assert result.final_cycles == result.initial_cycles

    def test_records_are_consistent(self, small_report):
        for result in small_report.results:
            assert result.timing_constraint == max(
                1, round(result.initial_cycles * result.constraint_fraction)
            )
            assert result.constraint_met == (
                result.final_cycles <= result.timing_constraint
            )
            assert not (set(result.moved_bb_ids) & set(result.reverted_bb_ids))

    def test_parallel_matches_serial(self, small_space, small_report):
        parallel = explore(small_space, max_workers=2)
        assert parallel.results == small_report.results
        assert parallel.workers_used == 2

    def test_engine_config_propagates(self, small_space):
        strict = explore(
            small_space,
            max_workers=1,
            engine_config=EngineConfig(max_kernels_moved=1),
        )
        assert all(r.kernels_moved <= 1 for r in strict.results)

    def test_greedy_cells_match_full_rescan_reference(
        self, small_space, small_report
    ):
        """Every greedy grid cell equals the seed engine's full-rescan
        loop (the object reference in ``tests/oracles``) on its pair."""
        expected = []
        for task in small_space.tasks():
            model = CostModel(task.workload.build(), task.platform.build())
            for fraction in task.constraint_fractions:
                constraint = max(1, round(model.initial_cycles() * fraction))
                reference = full_rescan(model, constraint)
                expected.append(
                    (reference.final_cycles, tuple(reference.moved_bb_ids))
                )
        assert [
            (result.final_cycles, tuple(result.moved_bb_ids))
            for result in small_report.results
        ] == expected

    def test_stats_aggregate(self, small_report):
        assert small_report.block_cost_evaluations > 0
        assert small_report.blocks_mapped > 0
        assert small_report.elapsed_seconds > 0.0

    def test_task_prices_each_pair_once(self, small_space):
        resolver = TableResolver()
        outcome = _run_task(small_space.tasks()[0], resolver)
        # One packed table priced every constraint cell of the pair, so
        # each of the 18 OFDM blocks was mapped exactly once, not once
        # per cell.
        assert outcome.blocks_mapped == 18
        # Re-running the task against the warm resolver re-prices
        # nothing at all.
        warm = _run_task(small_space.tasks()[0], resolver)
        assert warm.blocks_mapped == 0
        assert warm.results == outcome.results

    def test_serial_explore_builds_each_workload_once(self, monkeypatch):
        """A serial run shares one call-scoped resolver across its
        tasks, so one workload on two platforms is built once."""
        builds = []
        original = WorkloadSpec.build

        def counting_build(spec, *args, **kwargs):
            builds.append(spec)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(WorkloadSpec, "build", counting_build)
        spec = WorkloadSpec.synthetic(8, seed=1)
        report = explore(
            DesignSpace.grid(
                [spec], afpga_values=(1500, 5000), cgc_counts=(2,),
                constraint_fractions=(0.5,),
            ),
            max_workers=1,
        )
        assert report.tasks_run == 2
        assert builds == [spec]

    def test_algorithm_cells_share_the_pair_table(self):
        """Different algorithms on the same (workload, platform) pair
        price it once between them (the tentpole sharing claim)."""
        space = DesignSpace(
            workloads=(WorkloadSpec.ofdm(),),
            platforms=(PlatformSpec(afpga=1500, cgc_count=2),),
            constraint_fractions=(0.5,),
            algorithms=(AlgorithmSpec.greedy(), AlgorithmSpec.annealing()),
        )
        greedy_task, annealing_task = space.tasks()
        resolver = TableResolver()
        first = _run_task(greedy_task, resolver)
        assert first.blocks_mapped == 18
        second = _run_task(annealing_task, resolver)
        assert second.blocks_mapped == 0


class TestAlgorithmAxis:
    @pytest.fixture(scope="class")
    def algo_space(self):
        return DesignSpace(
            workloads=(WorkloadSpec.ofdm(),),
            platforms=(PlatformSpec(afpga=1500, cgc_count=2),),
            constraint_fractions=(0.5,),
            algorithms=(
                AlgorithmSpec.greedy(),
                AlgorithmSpec.exhaustive(),
                AlgorithmSpec.annealing(seed=2),
            ),
        )

    @pytest.fixture(scope="class")
    def algo_report(self, algo_space):
        return explore(algo_space, max_workers=1)

    def test_size_includes_algorithm_axis(self, algo_space):
        assert algo_space.size == 3
        # One task per (workload, platform, algorithm) triple, so the
        # algorithm axis parallelizes; pricing is shared per pair by
        # the runner's table cache, not by task granularity.
        tasks = algo_space.tasks()
        assert len(tasks) == 3
        assert [t.algorithm for t in tasks] == list(algo_space.algorithms)

    def test_default_axis_is_greedy_alone(self, small_space, small_report):
        assert small_space.algorithms == (AlgorithmSpec.greedy(),)
        assert small_report.algorithms() == ["greedy"]
        assert all(r.algorithm == "greedy" for r in small_report.results)

    def test_empty_algorithm_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(
                workloads=(WorkloadSpec.ofdm(),),
                platforms=(PlatformSpec(),),
                algorithms=(),
            )

    def test_grid_factory_accepts_algorithms(self):
        space = DesignSpace.grid(
            [WorkloadSpec.ofdm()],
            afpga_values=(1500,),
            cgc_counts=(2,),
            constraint_fractions=(0.5,),
            algorithms=(AlgorithmSpec.greedy(), AlgorithmSpec.annealing()),
        )
        assert space.size == 2

    def test_results_tagged_with_algorithm_label(self, algo_report):
        assert algo_report.algorithms() == [
            "greedy",
            "exhaustive",
            "annealing[seed=2]",
        ]
        for result in algo_report.results:
            assert result.to_dict()["algorithm"] == result.algorithm

    def test_heuristics_at_least_match_greedy(self, algo_report):
        # Greedy stops at the constraint; the exact search and annealing
        # (from a greedy warm start) minimize fully, so they can only
        # end at or below it.
        best = algo_report.best_per_algorithm("ofdm-transmitter", 0.5)
        greedy = best["greedy"]
        for label in ("exhaustive", "annealing[seed=2]"):
            assert best[label].final_cycles <= greedy.final_cycles

    def test_best_per_algorithm_filters(self, algo_report):
        assert algo_report.best_per_algorithm("nope") == {}
        best = algo_report.best_per_algorithm()
        assert set(best) == set(algo_report.algorithms())

    def test_for_algorithm_slices(self, algo_report):
        rows = algo_report.for_algorithm("exhaustive")
        assert rows and all(r.algorithm == "exhaustive" for r in rows)

    def test_parallel_matches_serial_with_algorithms(
        self, algo_space, algo_report
    ):
        parallel = explore(algo_space, max_workers=2)
        assert parallel.results == algo_report.results


class TestReportQueries:
    def test_cheapest_meeting(self, small_report):
        cheapest = small_report.cheapest_meeting("ofdm-transmitter", 0.6)
        assert cheapest is not None
        assert cheapest.constraint_met
        others = [
            r
            for r in small_report.for_workload("ofdm-transmitter")
            if r.constraint_fraction == 0.6 and r.constraint_met
        ]
        assert all(
            (cheapest.afpga, cheapest.cgc_count) <= (r.afpga, r.cgc_count)
            for r in others
        )

    def test_cheapest_meeting_missing(self, small_report):
        assert small_report.cheapest_meeting("nope", 0.6) is None

    def test_best_reduction(self, small_report):
        best = small_report.best_reduction("ofdm-transmitter")
        assert best is not None
        assert best.reduction_percent == max(
            r.reduction_percent
            for r in small_report.for_workload("ofdm-transmitter")
        )

    def test_workload_names(self, small_report):
        # Non-default shape parameters are part of the default name, so
        # two parameterizations can never collide in report queries.
        assert small_report.workload_names() == [
            "ofdm-transmitter",
            "synthetic-12b-s3-ci0.8",
        ]

    def test_summary_mentions_counts(self, small_report):
        text = small_report.summary()
        assert str(small_report.size) in text and "workers" in text


class TestReportingIntegration:
    def test_render(self, small_report):
        text = render_exploration(small_report)
        assert "A_FPGA" in text and "ofdm-transmitter" in text

    def test_csv_roundtrip(self, small_report, tmp_path):
        path = write_exploration_csv(small_report.results, tmp_path / "r.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == small_report.size
        assert rows[0]["workload"] == "ofdm-transmitter"
        assert rows[0]["constraint_met"] in ("True", "False")

    def test_json_roundtrip(self, small_report, tmp_path):
        path = write_exploration_json(small_report, tmp_path / "r.json")
        payload = json.loads(path.read_text())
        assert payload["summary"]["points"] == small_report.size
        assert len(payload["results"]) == small_report.size

    def test_empty_report_renders(self):
        report = ExplorationReport()
        assert "explored 0 points" in report.summary()
        assert render_exploration(report)
