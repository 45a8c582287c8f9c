"""Parallel grid-sweep runner.

Work is split at (workload, platform, algorithm) granularity so every
grid axis fans out across worker processes, but pricing is shared at
(workload, platform) granularity: a
:class:`~repro.partition.resolver.TableResolver` — one per call when
serial, one per worker process otherwise — builds each workload once and
prices each pair into one :class:`~repro.partition.packed.PackedCostTable`,
injected into every partitioner built for that pair, so the algorithm
and constraint axes never remap a block a sibling cell already priced.
Constraint-independent search state (the greedy move trajectory, a
cached annealing walk) is shared across the constraints of each
algorithm.

Tasks fan out over ``concurrent.futures.ProcessPoolExecutor``; with
``max_workers=1`` (or a single task) everything runs in-process, which is
also the automatic fallback where process pools are unavailable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

from ..parallel import map_tasks
from ..partition.costs import CostStats
from ..partition.engine import EngineConfig
from ..partition.resolver import TableResolver, process_resolver
from ..search import make_partitioner
from .results import ExplorationReport, ExplorationResult
from .space import DesignSpace, ExplorationTask


@dataclass
class _TaskOutcome:
    """What one task ships back to the coordinating process."""

    results: list[ExplorationResult] = field(default_factory=list)
    block_cost_evaluations: int = 0
    contribution_lookups: int = 0
    blocks_mapped: int = 0

    def absorb(self, stats: CostStats) -> None:
        self.block_cost_evaluations += stats.block_cost_evaluations
        self.contribution_lookups += stats.contribution_lookups
        self.blocks_mapped += stats.blocks_mapped


def _run_task(
    task: ExplorationTask, resolver: TableResolver | None = None
) -> _TaskOutcome:
    """Execute one (workload, platform) pair's (algorithm × constraint)
    sweep.

    The pair is priced once: its table comes from ``resolver`` (this
    process's shared resolver when None) and is injected into every
    algorithm's partitioner, so the algorithm and constraint axes add
    zero block-mapping work.  Pricing done on a table miss is counted
    in the outcome.
    """
    if resolver is None:
        resolver = process_resolver()
    config = task.engine_config or EngineConfig()
    outcome = _TaskOutcome()
    pricing_stats = CostStats()
    workload, platform, table = resolver.resolve(
        (task.workload, task.platform),
        config.charge_single_partition_reconfig,
        pricing_stats,
    )
    outcome.absorb(pricing_stats)
    for algorithm in task.algorithms:
        partitioner = make_partitioner(
            algorithm, workload, platform, config=config, packed_table=table
        )
        initial = partitioner.initial_cycles()
        for fraction in task.constraint_fractions:
            constraint = max(1, round(initial * fraction))
            result = partitioner.run(constraint)
            outcome.results.append(
                ExplorationResult.from_partition_result(
                    result,
                    afpga=task.platform.afpga,
                    cgc_count=task.platform.cgc_count,
                    clock_ratio=task.platform.clock_ratio,
                    reconfig_cycles=task.platform.reconfig_cycles,
                    constraint_fraction=fraction,
                    algorithm=algorithm.label,
                )
            )
        outcome.absorb(partitioner.stats)
    return outcome


def explore(
    space: DesignSpace,
    *,
    max_workers: int | None = None,
    engine_config: EngineConfig | None = None,
) -> ExplorationReport:
    """Sweep the whole design space, fanning tasks out across processes.

    ``max_workers=None`` sizes the pool to ``min(tasks, cpu_count)``;
    ``max_workers=1`` forces a serial in-process run.  Results come back
    in grid order (workloads × platforms × constraint fractions)
    regardless of worker scheduling.
    """
    tasks = space.tasks(engine_config)
    started = time.perf_counter()
    workers = max_workers
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    workers = max(1, workers)
    # Serial tasks share a resolver scoped to this call: the
    # coordinating process is long lived and must not accumulate every
    # workload explored.
    resolver = TableResolver()

    # The shared fan-out contract (repro.parallel): an unusable pool or
    # a worker dying mid-grid falls back to a serial run; genuine task
    # errors propagate as themselves.
    outcomes, workers = map_tasks(
        _run_task,
        tasks,
        workers,
        what="exploration grid",
        serial_runner=partial(_run_task, resolver=resolver),
    )

    report = ExplorationReport(
        workers_used=workers,
        tasks_run=len(tasks),
        elapsed_seconds=time.perf_counter() - started,
    )
    for outcome in outcomes:
        report.results.extend(outcome.results)
        report.block_cost_evaluations += outcome.block_cost_evaluations
        report.contribution_lookups += outcome.contribution_lookups
        report.blocks_mapped += outcome.blocks_mapped
    return report
