"""Batched scenario execution.

Runs each named scenario's :class:`~repro.job.Job` through
:func:`~repro.job.run_job` (the path the CLI, the :mod:`repro.explore`
grids and the server share), timing each scenario and packaging the
outcomes as a :class:`~repro.suite.store.SuiteRun` ready for the store,
the JSON baseline writer, or a comparison.

Scenarios fan out through :func:`~repro.job.fan_out` like exploration
tasks do, with the same serial fallback when process pools are
unavailable.
Workloads and packed cost tables come from a
:class:`~repro.partition.resolver.TableResolver` (one per serial call,
one per worker process), so scenarios sharing a workload build its DFGs
once, and scenarios that differ only in algorithm or constraint
fraction price their blocks once instead of once per scenario.
"""

from __future__ import annotations

import time

from .. import telemetry
from ..job import fan_out, run_job
from ..partition.resolver import TableResolver, process_resolver
from .fingerprint import repo_fingerprint
from .scenarios import Scenario, default_suite
from .store import ResultStore, ScenarioResult, SuiteRun


def run_scenario(
    scenario: Scenario, resolver: TableResolver | None = None
) -> ScenarioResult:
    """Execute one scenario.

    ``wall_time_seconds`` covers the partitioning search itself
    (pricing through the final result — pricing is amortized to the
    pair's first scenario by ``resolver``, this process's shared
    resolver when None), not the cached workload build.
    ``configs_per_second`` is the visited-configuration count over the
    search-only time (``run()`` on the warm table) — the
    evaluation-throughput metric regressions gate on.

    With telemetry enabled, ``phases`` carries the per-phase seconds of
    the walled region (the scenario span's direct children, e.g.
    ``price_table``/``search``), so their sum never exceeds
    ``wall_time_seconds``; with telemetry off it is empty and nothing
    else changes.
    """
    if resolver is None:
        resolver = process_resolver()
    # Outside the scenario span on purpose: the build is cached and
    # excluded from wall_time_seconds, so it must not show up in the
    # phase breakdown that reconciles against the wall either.
    resolver.workload(scenario.workload)

    # The walled region runs under one span per scenario, so its direct
    # children (price_table, search, ...) are exactly the phases the
    # result records — their sum is ≤ wall by construction.
    with telemetry.span(f"scenario:{scenario.name}") as scenario_span:
        # Span nodes accumulate across repeat runs in one process; the
        # result's phases must cover only THIS invocation, so diff
        # against the node's state at entry.
        phase_baseline = {
            name: node.seconds
            for name, node in scenario_span.children.items()
        }
        started = time.perf_counter()
        run = run_job(scenario.job, resolver)
        [result] = run.results
        final_subset = tuple(sorted(result.moved_bb_ids))
        rows_used = run.partitioner.subset_rows_used(final_subset)
        wall = time.perf_counter() - started

    phases = tuple(
        sorted(
            (name, node.seconds - phase_baseline.get(name, 0.0))
            for name, node in scenario_span.children.items()
            if node.seconds > phase_baseline.get(name, 0.0)
        )
    )

    return ScenarioResult(
        scenario=scenario.name,
        workload=result.workload_name,
        platform=scenario.platform.label,
        algorithm=scenario.algorithm.label,
        constraint_fraction=scenario.constraint_fraction,
        timing_constraint=result.timing_constraint,
        initial_cycles=result.initial_cycles,
        total_cycles=result.final_cycles,
        reduction_percent=result.reduction_percent,
        kernels_moved=result.kernels_moved,
        moved_bb_ids=final_subset,
        rows_used=rows_used,
        constraint_met=result.constraint_met,
        wall_time_seconds=wall,
        configs_per_second=(
            run.partitioner.visited_count / run.search_seconds
            if run.search_seconds > 0
            else 0.0
        ),
        phases=phases,
    )


def run_suite(
    scenarios: list[Scenario] | None = None,
    *,
    store: ResultStore | None = None,
    label: str = "",
    max_workers: int | None = None,
    fingerprint: str | None = None,
) -> SuiteRun:
    """Run every scenario (the full registry by default) and return the
    assembled :class:`SuiteRun`, recorded into ``store`` when given.

    ``max_workers=None`` sizes the pool to ``min(scenarios, cpus)``;
    ``max_workers=1`` forces a serial in-process run.  Results come back
    in scenario order regardless of worker scheduling.
    """
    scenarios = default_suite() if scenarios is None else list(scenarios)
    if not scenarios:
        raise ValueError("no scenarios to run")
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a run")

    started = time.perf_counter()
    results, _ = fan_out(
        run_scenario, scenarios, max_workers, what="suite scenarios"
    )

    run = SuiteRun(
        fingerprint=fingerprint or repo_fingerprint(),
        label=label,
        elapsed_seconds=time.perf_counter() - started,
        results=results,
    )
    if store is not None:
        store.record_run(run)
    return run
