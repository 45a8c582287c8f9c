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
  partitioning algorithms (exhaustive, multi-start, simulated
  annealing) over shared packed cost tables, with Pareto-front
  multi-objective analysis;
* :mod:`repro.suite` — named end-to-end scenario registry, batched
  runner, persistent SQLite/JSON result store and the thresholded
  regression comparison CI gates on;
* :mod:`repro.job` — the one job path: a :class:`~repro.job.Job` (specs
  plus timing targets) and :func:`~repro.job.run_job`, which the CLI,
  :mod:`repro.explore`, :mod:`repro.suite` and :mod:`repro.serve` all
  run: price the pair, derive the constraints, search.

Quickstart::

    from repro import GreedyPartitioner, paper_platform
    from repro.workloads import ofdm_workload

    partitioner = GreedyPartitioner(
        ofdm_workload(), paper_platform(afpga=1500, cgc_count=2)
    )
    print(partitioner.run(timing_constraint=35_000).summary())
"""

from .analysis import (
    AnalysisResult,
    DynamicProfile,
    KernelInfo,
    WeightModel,
    extract_kernels,
    profile_cdfg,
)
from .coarsegrain import CGCDatapath, block_cgc_timing, schedule_dfg, standard_datapath
# NOTE: the explore() runner itself is not re-exported here — that would
# shadow the repro.explore submodule; use `from repro.explore import explore`.
from .explore import (
    DesignSpace,
    ExplorationReport,
    ExplorationResult,
    PlatformSpec,
    WorkloadSpec,
)
from .finegrain import FPGADevice, block_fpga_timing, partition_dfg
from .frontend import parse_program
from .interp import Interpreter, run_function
from .job import Job, run_job
from .ir import CDFG, build_cdfg, cdfg_from_source
from .partition import (
    ApplicationWorkload,
    BlockWorkload,
    EngineConfig,
    PartitionResult,
    workload_from_cdfg,
)
from .platform import HybridPlatform, paper_platform
from .reporting import (
    reproduce_headline_claims,
    reproduce_table1_jpeg,
    reproduce_table1_ofdm,
    reproduce_table2,
    reproduce_table3,
)
from .search import (
    AlgorithmSpec,
    GreedyPartitioner,
    Partitioner,
    VisitedConfiguration,
    make_partitioner,
    pareto_front,
)
from .suite import (
    RegressionThresholds,
    ResultStore,
    Scenario,
    ScenarioResult,
    SuiteComparison,
    SuiteRun,
    compare_runs,
    run_suite,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmSpec",
    "AnalysisResult",
    "ApplicationWorkload",
    "BlockWorkload",
    "CDFG",
    "CGCDatapath",
    "DesignSpace",
    "DynamicProfile",
    "EngineConfig",
    "ExplorationReport",
    "ExplorationResult",
    "FPGADevice",
    "GreedyPartitioner",
    "HybridPlatform",
    "Interpreter",
    "Job",
    "KernelInfo",
    "PartitionResult",
    "Partitioner",
    "PlatformSpec",
    "RegressionThresholds",
    "ResultStore",
    "Scenario",
    "ScenarioResult",
    "SuiteComparison",
    "SuiteRun",
    "VisitedConfiguration",
    "WeightModel",
    "WorkloadSpec",
    "block_cgc_timing",
    "block_fpga_timing",
    "build_cdfg",
    "cdfg_from_source",
    "compare_runs",
    "extract_kernels",
    "make_partitioner",
    "paper_platform",
    "pareto_front",
    "parse_program",
    "partition_dfg",
    "profile_cdfg",
    "reproduce_headline_claims",
    "reproduce_table1_jpeg",
    "reproduce_table1_ofdm",
    "reproduce_table2",
    "reproduce_table3",
    "run_function",
    "run_job",
    "run_suite",
    "schedule_dfg",
    "standard_datapath",
    "workload_from_cdfg",
    "__version__",
]
