"""The one job path the CLI, explore, the suite and serve all run: price
the pair, build one partitioner on its table, derive the constraints
(:func:`fraction_constraint`) and run every target on that partitioner.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .partition.costs import CostStats
from .partition.engine import EngineConfig
from .partition.packed import PackedCostTable
from .partition.resolver import TableResolver, process_resolver
from .partition.result import PartitionResult
from .partition.workload import ApplicationWorkload
from .platform.soc import HybridPlatform
from .search.base import AlgorithmSpec, Partitioner, make_partitioner

if TYPE_CHECKING:  # pragma: no cover - typing only (explore imports job)
    from .explore.space import PlatformSpec, WorkloadSpec

#: A pair already resolved to its built workload, platform and table.
Resolved = tuple[ApplicationWorkload, HybridPlatform, PackedCostTable]


@dataclass(frozen=True)
class Job:
    """A pair, an algorithm and its targets: absolute ``constraints`` in
    FPGA cycles or ``constraint_fractions`` of the all-FPGA cycles."""

    workload: WorkloadSpec
    platform: PlatformSpec
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec.greedy)
    constraints: tuple[int, ...] = ()
    constraint_fractions: tuple[float, ...] = ()
    engine_config: EngineConfig | None = None

    def __post_init__(self) -> None:
        if bool(self.constraints) == bool(self.constraint_fractions):
            raise ValueError("set exactly one of constraints or fractions")
        if any(constraint <= 0 for constraint in self.constraints):
            raise ValueError("timing constraints must be positive")
        if not all(0 < f < math.inf for f in self.constraint_fractions):
            raise ValueError("fractions must be positive and finite")

    def describe(self) -> str:
        targets = [f"{c} cycles" for c in self.constraints]
        targets += [f"{f:g}·initial" for f in self.constraint_fractions]
        return (
            f"{self.workload.label} on {self.platform.label} @ "
            f"{', '.join(targets)} via {self.algorithm.label}"
        )


def fraction_constraint(initial_cycles: int, fraction: float) -> int:
    """The timing constraint ``fraction`` of the all-FPGA cycles names."""
    cycles = initial_cycles * fraction
    if not math.isfinite(cycles):
        raise ValueError(
            f"fraction {fraction:g} × {initial_cycles} cycles is not finite"
        )
    return max(1, round(cycles))


class JobRun(NamedTuple):
    """One result per target in the job's order, the partitioner they
    all ran on, the seconds spent searching and the pricing the job paid
    for (zero on a cached table)."""

    results: list[PartitionResult]
    partitioner: Partitioner
    search_seconds: float
    pricing: CostStats


def run_job(
    job: Job, source: TableResolver | Resolved | None = None
) -> JobRun:
    """Run every target of ``job`` on one partitioner.

    ``source`` prices the pair (this process's resolver when None) or is
    the resolved pair.
    """
    config = job.engine_config or EngineConfig()
    pricing = CostStats()
    if isinstance(source, tuple):
        workload, platform, table = source
    else:
        workload, platform, table = (source or process_resolver()).resolve(
            (job.workload, job.platform),
            config.charge_single_partition_reconfig,
            pricing,
        )
    partitioner = make_partitioner(
        job.algorithm, workload, platform, config=config, packed_table=table
    )
    initial = partitioner.initial_cycles()
    targets = [
        *job.constraints,
        *(fraction_constraint(initial, f) for f in job.constraint_fractions),
    ]
    started = time.perf_counter()
    results = partitioner.sweep(targets)
    seconds = time.perf_counter() - started
    return JobRun(results, partitioner, seconds, pricing)


def fan_out(
    fn: Callable[..., Any], tasks: list, max_workers: int | None, what: str
) -> tuple[list, int]:
    """``map_tasks`` with ``max_workers=None`` as min(tasks, CPUs): pool
    workers price on their process resolver, a serial run on one scoped
    to this call (a long-lived caller must not keep every pair)."""
    # Imported here: a single job (the CLI, a served one) never fans out,
    # and the pool machinery is most of what importing this module costs.
    from .parallel import map_tasks

    workers = max_workers
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    serial = partial(fn, resolver=TableResolver())
    return map_tasks(fn, tasks, workers, what=what, serial_runner=serial)
