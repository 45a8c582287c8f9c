"""Parallel grid-sweep runner.

Each (workload, platform, algorithm) cell is one
:class:`~repro.job.Job` carrying every constraint fraction, run by
:func:`~repro.job.run_job`, so every grid axis fans out across worker
processes while pricing is shared per (workload, platform) pair: a
:class:`~repro.partition.resolver.TableResolver` — one per call when
serial, one per worker process otherwise — builds each workload once and
prices each pair into one :class:`~repro.partition.packed.PackedCostTable`,
so the algorithm and constraint axes never remap a block a sibling cell
already priced.  A job computes its greedy trajectory, exact optimum or
annealing walk once for all its fractions.

Tasks fan out through :func:`~repro.job.fan_out`; with
``max_workers=1`` (or a single task) everything runs in-process, which is
also the automatic fallback where process pools are unavailable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..job import Job, fan_out, run_job
from ..partition.costs import CostStats
from ..partition.engine import EngineConfig
from ..partition.resolver import TableResolver
from .results import ExplorationReport, ExplorationResult
from .space import DesignSpace


@dataclass
class _TaskOutcome(CostStats):
    """What one task ships back: its grid rows and the pricing it paid for."""

    results: list[ExplorationResult] = field(default_factory=list)


def _run_task(
    task: Job, resolver: TableResolver | None = None
) -> _TaskOutcome:
    """Run one grid job: one algorithm's constraint sweep on one pair.

    The pair's table comes from ``resolver`` (this process's shared
    resolver when None), so the algorithm and constraint axes add zero
    block-mapping work; pricing done on a table miss is counted in the
    outcome.
    """
    run = run_job(task, resolver)
    outcome = _TaskOutcome(**vars(run.pricing))
    for fraction, result in zip(
        task.constraint_fractions, run.results, strict=True
    ):
        outcome.results.append(
            ExplorationResult.from_partition_result(
                result,
                afpga=task.platform.afpga,
                cgc_count=task.platform.cgc_count,
                clock_ratio=task.platform.clock_ratio,
                reconfig_cycles=task.platform.reconfig_cycles,
                constraint_fraction=fraction,
                algorithm=task.algorithm.label,
            )
        )
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
    outcomes, workers = fan_out(
        _run_task, tasks, max_workers, what="exploration grid"
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
