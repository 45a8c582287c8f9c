"""API-surface and cross-cutting behaviour tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.coarsegrain import schedule_dfg, standard_datapath
from repro.partition import PartitionResult, PartitionStep
from repro.platform import paper_platform
from repro.search import GreedyPartitioner
from repro.workloads import SyntheticBlockProfile, generate_dfg


class TestPackageExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_subpackage_exports_resolve(self):
        import repro.analysis
        import repro.coarsegrain
        import repro.explore
        import repro.finegrain
        import repro.frontend
        import repro.interp
        import repro.ir
        import repro.partition
        import repro.platform
        import repro.reporting
        import repro.workloads

        for module in (
            repro.analysis, repro.coarsegrain, repro.explore,
            repro.finegrain, repro.frontend, repro.interp, repro.ir,
            repro.partition, repro.platform, repro.reporting,
            repro.workloads,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestDependencies:
    def test_library_does_not_import_networkx(self):
        """networkx is a test-only dependency: no library entry point may
        pull it in (the tests' graph views import it themselves)."""
        code = (
            "import sys, repro, repro.serve.daemon, repro.explore, "
            "repro.suite, repro.reporting; "
            "print('networkx' in sys.modules)"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestResultTypes:
    def test_partition_result_reduction_edge_cases(self):
        result = PartitionResult(
            workload_name="w",
            platform_name="p",
            timing_constraint=10,
            initial_cycles=0,
            final_cycles=0,
            cycles_in_cgc=0,
            comm_cycles=0,
            fpga_cycles=0,
        )
        assert result.reduction_percent == 0.0
        assert result.kernels_moved == 0

    def test_partition_step_immutable(self):
        step = PartitionStep(1, 2, 3, 4, 9, True)
        with pytest.raises(AttributeError):
            step.total_cycles = 10  # type: ignore[misc]


class TestScheduleIntrospection:
    def test_ops_in_cycle_covers_memory_duration(self):
        profile = SyntheticBlockProfile(
            bb_id=950, exec_freq=1, alu_ops=4, mul_ops=0,
            load_ops=3, store_ops=1,
        )
        schedule = schedule_dfg(generate_dfg(profile), standard_datapath(2))
        # Every memory op must appear active in `memory_latency` cycles.
        for op in schedule.ops.values():
            if op.unit != "mem":
                continue
            active = sum(
                1
                for cycle in range(schedule.makespan)
                if op in schedule.ops_in_cycle(cycle)
            )
            assert active == op.duration

    def test_schedule_end_property(self):
        profile = SyntheticBlockProfile(
            bb_id=951, exec_freq=1, alu_ops=2, mul_ops=0, load_ops=1,
        )
        schedule = schedule_dfg(generate_dfg(profile), standard_datapath(2))
        for op in schedule.ops.values():
            assert op.end == op.cycle + op.duration


class TestEngineDeterminism:
    def test_repeated_runs_identical(self, ofdm):
        platform = paper_platform(1500, 2)
        first = GreedyPartitioner(ofdm, platform).run(40_000)
        second = GreedyPartitioner(ofdm, platform).run(40_000)
        assert first.moved_bb_ids == second.moved_bb_ids
        assert first.final_cycles == second.final_cycles
        assert first.initial_cycles == second.initial_cycles

    def test_fresh_workload_builds_identical(self):
        from repro.workloads import ofdm_workload

        platform = paper_platform(1500, 3)
        a = GreedyPartitioner(ofdm_workload(), platform).run(40_000)
        b = GreedyPartitioner(ofdm_workload(), platform).run(40_000)
        assert a.final_cycles == b.final_cycles
        assert a.moved_bb_ids == b.moved_bb_ids
