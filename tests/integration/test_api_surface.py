"""API-surface and cross-cutting behaviour tests."""

import ast
import importlib.util
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

ROOT = Path(__file__).resolve().parents[2]
#: Packages whose exports resolve on first use.
LAZY_PACKAGES = ("repro", "repro.explore", "repro.reporting", "repro.workloads")
#: What a flow or a single partition must not load: the suite store,
#: report writers, the daemon and the process pool.
NOT_FOR_ONE_RUN = (
    "sqlite3", "csv", "multiprocessing", "concurrent.futures", "http.server",
    "subprocess", "repro.suite", "repro.reporting", "repro.serve",
    "repro.explore.runner", "repro.parallel",
)


_spec = importlib.util.spec_from_file_location(
    "footprint", ROOT / "scripts" / "footprint.py"
)
footprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(footprint)


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

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["GreedyPartitioner"] is GreedyPartitioner

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_lazy_table_matches_the_typing_imports(self, package):
        """Type checkers and linters read the ``TYPE_CHECKING`` imports;
        the runtime reads the table: both must name the same
        (submodule, name) pairs."""
        path = ROOT / "src" / Path(*package.split(".")) / "__init__.py"
        tree = ast.parse(path.read_text())
        [guard] = [
            node for node in tree.body
            if isinstance(node, ast.If)
            and ast.unparse(node.test) == "TYPE_CHECKING"
        ]
        typing_pairs = {
            ("." + node.module, alias.name)
            for node in guard.body
            for alias in node.names
            if alias.asname == alias.name
        }
        [call] = [
            node.value for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "lazy_exports"
        ]
        table = ast.literal_eval(call.args[1])
        assert typing_pairs == {
            (module, name) for module, names in table.items()
            for name in names
        }


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

    def test_no_library_module_imports_numpy(self):
        """Only calling ``test_image`` loads numpy: importing every
        module of the package does not."""
        loaded, _ = footprint.probe(
            "import importlib, pkgutil, repro\n"
            "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if module.name != 'repro.__main__':\n"
            "        importlib.import_module(module.name)"
        )
        assert {"repro.workloads.jpeg", "repro.workloads.ofdm"} <= loaded
        assert "numpy" not in loaded

    def test_import_repro_loads_no_subpackage(self):
        loaded, _ = footprint.probe(footprint.ENTRY_POINTS["import repro"])
        assert {m for m in loaded if m.startswith("repro.")} == {"repro._lazy"}
        loaded, _ = footprint.probe("import repro; repro.paper_platform")
        assert "repro.platform" in loaded
        assert not {"repro.suite", "repro.search", "numpy"} & loaded

    def test_flow_imports_load_no_store_pool_or_daemon(self):
        """The library imports of perfbench's flow-minic workload (its
        set-up calls ``test_image``, which loads numpy; importing it
        does not)."""
        tree = ast.parse((ROOT / "perfbench" / "flow_minic.py").read_text())
        imports = [
            ast.unparse(node) for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("repro")
        ]
        assert imports
        loaded, _ = footprint.probe("\n".join(imports))
        assert not {*NOT_FOR_ONE_RUN, "numpy"} & loaded

    def test_cli_partition_loads_no_store_pool_or_numpy(self):
        loaded, _ = footprint.probe(
            footprint.ENTRY_POINTS[
                "python -m repro partition --workload ofdm --fraction 0.5"
            ]
        )
        assert not {*NOT_FOR_ONE_RUN, "numpy"} & loaded

    def test_cli_partition_of_the_measured_ofdm_loads_no_numpy(self):
        """The transmitter's tables and payload bits come from the
        stdlib: interpreting it loads no numpy."""
        loaded, _ = footprint.probe(
            footprint.ENTRY_POINTS[
                "python -m repro partition --workload ofdm-measured "
                "--fraction 0.5"
            ]
        )
        assert "repro.workloads.ofdm" in loaded
        assert not {*NOT_FOR_ONE_RUN, "numpy"} & loaded

    @staticmethod
    def serve_one(workload):
        """The modules a fresh process holds after serving one job."""
        return footprint.probe(
            "import repro.serve\n"
            "with repro.serve.Server() as server:\n"
            "    job = server.submit_payload(\n"
            f"        {{'workload': {workload!r}, 'fraction': 0.5}})\n"
            "    assert server.await_result(job, timeout=60).state == 'done'"
        )[0]

    def test_serving_a_job_loads_no_store_reports_or_numpy(self):
        loaded = self.serve_one("synthetic:12:seed=3")
        assert "repro.serve.server" in loaded
        assert not {
            "sqlite3", "csv", "repro.suite", "repro.reporting", "numpy",
        } & loaded

    def test_serving_a_measured_ofdm_job_loads_no_numpy(self):
        loaded = self.serve_one("ofdm-measured")
        assert "repro.workloads.ofdm" in loaded
        assert "numpy" not in loaded


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
