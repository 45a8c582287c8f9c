"""repro — reproduction of "A Partitioning Methodology for Accelerating
Applications in Hybrid Reconfigurable Platforms" (Galanis, Milidonis,
Theodoridis, Soudris, Goutis; DATE 2004/05, AMDREL project).

The package implements the full methodology of the paper's Figure 2 plus
every substrate it depends on:

* :mod:`repro.frontend` — mini-C language frontend (lexer/parser/semantics),
  replacing the SUIF2/MachineSUIF + Lex toolchain;
* :mod:`repro.ir` — three-address IR, CFGs, per-block DFGs and the
  program-level CDFG (step 1);
* :mod:`repro.interp` — CFG interpreter with per-block profiling counters
  (the dynamic half of step 3);
* :mod:`repro.analysis` — weights, static/dynamic analysis, kernel
  extraction and ordering (step 3, Eq. 1);
* :mod:`repro.finegrain` — FPGA device model and the Figure 3 temporal
  partitioning algorithm with its timing model (steps 2, Eq. 4);
* :mod:`repro.coarsegrain` — the CGC data-path of ref. [6]: list
  scheduling, binding and timing (step 5, Eq. 3);
* :mod:`repro.partition` — Eq. 2 pricing on packed cost tables (step 4);
* :mod:`repro.platform` — the generic hybrid platform of Figure 1;
* :mod:`repro.workloads` — the OFDM transmitter and JPEG encoder
  (mini-C implementations + Table 1-calibrated synthetic models) plus a
  parameterized synthetic application generator for scale studies;
* :mod:`repro.reporting` — experiment runners regenerating Tables 1-3
  and CSV/JSON export of exploration reports;
* :mod:`repro.explore` — parallel design-space exploration: declarative
  (workload × platform × constraint × algorithm) grids fanned out across
  worker processes on top of the packed cost tables;
* :mod:`repro.search` — the Figure 2 greedy loop
  (:class:`~repro.search.GreedyPartitioner`) and the other pluggable
  partitioning algorithms (closed-form exhaustive, simulated
  annealing) over shared packed cost tables, with Pareto-front
  multi-objective analysis;
* :mod:`repro.suite` — named end-to-end scenario registry, batched
  runner, persistent SQLite/JSON result store and the thresholded
  regression comparison CI gates on;
* :mod:`repro.job` — the one job path: a :class:`~repro.job.Job` (specs
  plus timing targets) and :func:`~repro.job.run_job`, which the CLI,
  :mod:`repro.explore`, :mod:`repro.suite` and :mod:`repro.serve` all
  run: price the pair, derive the constraints, search.

The names exported here resolve on first use (:mod:`repro._lazy`), so
``import repro`` loads no subpackage and a run loads only what it uses.

Quickstart::

    from repro import GreedyPartitioner, paper_platform
    from repro.workloads import ofdm_workload

    partitioner = GreedyPartitioner(
        ofdm_workload(), paper_platform(afpga=1500, cgc_count=2)
    )
    print(partitioner.run(timing_constraint=35_000).summary())
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .analysis import (
        AnalysisResult as AnalysisResult,
        DynamicProfile as DynamicProfile,
        KernelInfo as KernelInfo,
        WeightModel as WeightModel,
        extract_kernels as extract_kernels,
        profile_cdfg as profile_cdfg,
    )
    from .coarsegrain import (
        CGCDatapath as CGCDatapath,
        block_cgc_timing as block_cgc_timing,
        schedule_dfg as schedule_dfg,
        standard_datapath as standard_datapath,
    )
    from .explore import (
        DesignSpace as DesignSpace,
        ExplorationReport as ExplorationReport,
        ExplorationResult as ExplorationResult,
        PlatformSpec as PlatformSpec,
        WorkloadSpec as WorkloadSpec,
    )
    from .finegrain import (
        FPGADevice as FPGADevice,
        block_fpga_timing as block_fpga_timing,
        partition_dfg as partition_dfg,
    )
    from .frontend import parse_program as parse_program
    from .interp import (
        Interpreter as Interpreter,
        run_function as run_function,
    )
    from .ir import (
        CDFG as CDFG,
        build_cdfg as build_cdfg,
        cdfg_from_source as cdfg_from_source,
    )
    from .job import (
        Job as Job,
        run_job as run_job,
    )
    from .partition import (
        ApplicationWorkload as ApplicationWorkload,
        BlockWorkload as BlockWorkload,
        EngineConfig as EngineConfig,
        PartitionResult as PartitionResult,
        workload_from_cdfg as workload_from_cdfg,
    )
    from .platform import (
        HybridPlatform as HybridPlatform,
        paper_platform as paper_platform,
    )
    from .reporting import (
        reproduce_headline_claims as reproduce_headline_claims,
        reproduce_table1_jpeg as reproduce_table1_jpeg,
        reproduce_table1_ofdm as reproduce_table1_ofdm,
        reproduce_table2 as reproduce_table2,
        reproduce_table3 as reproduce_table3,
    )
    from .search import (
        AlgorithmSpec as AlgorithmSpec,
        GreedyPartitioner as GreedyPartitioner,
        Partitioner as Partitioner,
        VisitedConfiguration as VisitedConfiguration,
        make_partitioner as make_partitioner,
        pareto_front as pareto_front,
    )
    from .suite import (
        RegressionThresholds as RegressionThresholds,
        ResultStore as ResultStore,
        Scenario as Scenario,
        ScenarioResult as ScenarioResult,
        SuiteComparison as SuiteComparison,
        SuiteRun as SuiteRun,
        compare_runs as compare_runs,
        run_suite as run_suite,
    )

__version__ = "1.0.0"

# The explore() runner is not exported here: it would shadow the
# repro.explore subpackage; use `from repro.explore import explore`.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".analysis": (
        "AnalysisResult", "DynamicProfile", "KernelInfo", "WeightModel",
        "extract_kernels", "profile_cdfg",
    ),
    ".coarsegrain": (
        "CGCDatapath", "block_cgc_timing", "schedule_dfg", "standard_datapath",
    ),
    ".explore": (
        "DesignSpace", "ExplorationReport", "ExplorationResult", "PlatformSpec",
        "WorkloadSpec",
    ),
    ".finegrain": ("FPGADevice", "block_fpga_timing", "partition_dfg"),
    ".frontend": ("parse_program",),
    ".interp": ("Interpreter", "run_function"),
    ".ir": ("CDFG", "build_cdfg", "cdfg_from_source"),
    ".job": ("Job", "run_job"),
    ".partition": (
        "ApplicationWorkload", "BlockWorkload", "EngineConfig", "PartitionResult",
        "workload_from_cdfg",
    ),
    ".platform": ("HybridPlatform", "paper_platform"),
    ".reporting": (
        "reproduce_headline_claims", "reproduce_table1_jpeg", "reproduce_table1_ofdm",
        "reproduce_table2", "reproduce_table3",
    ),
    ".search": (
        "AlgorithmSpec", "GreedyPartitioner", "Partitioner", "VisitedConfiguration",
        "make_partitioner", "pareto_front",
    ),
    ".suite": (
        "RegressionThresholds", "ResultStore", "Scenario", "ScenarioResult",
        "SuiteComparison", "SuiteRun", "compare_runs", "run_suite",
    ),
})
__all__ += ["__version__"]
