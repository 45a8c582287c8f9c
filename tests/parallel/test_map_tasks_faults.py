"""Fault-injection coverage for the supervised ``map_tasks``.

The tests drive the *real* process-pool path (where the schedule
kills real workers) or the serial path (where the same schedule is
simulated in-process) with a deterministic
:class:`~repro.faults.FaultPlan` — or, in one case, with a task that
kills its own worker — and assert the recovered output is
bit-identical to a fault-free serial run — the supervision layer's
central contract.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    TaskFailure,
    TaskFailureError,
)
from repro.parallel import MAX_POOL_REBUILDS, map_tasks


def square(task: int) -> int:
    return task * task


def square_in(task: tuple[int, int]) -> int:
    """Square ``value`` of ``(pid, value)``; in any process but ``pid``
    the worker kills itself first, so only a serial run finishes it."""
    pid, value = task
    if os.getpid() != pid:
        os._exit(1)
    return square(value)


TASKS = list(range(1, 11))
EXPECTED = [square(task) for task in TASKS]


def run(
    plan=None,
    *,
    workers: int = 4,
    failure_mode: str = "raise",
    fn=square,
    tasks=TASKS,
):
    counters: dict[str, int] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results, __ = map_tasks(
            fn,
            tasks,
            workers,
            what="squares",
            fault_plan=plan,
            failure_mode=failure_mode,
            counters=counters,
        )
    return results, counters


class TestCrashRecovery:
    def test_single_crash_mid_batch_salvages_and_rebuilds(self):
        results, counters = run(FaultPlan.crash_at(3))
        assert results == EXPECTED
        assert counters["pool_rebuilds"] >= 1
        assert counters["tasks_recovered"] >= 1

    def test_two_workers_killed_still_bit_identical(self):
        # The acceptance scenario: a seeded plan killing >= 2 workers.
        results, counters = run(FaultPlan.crash_at(2, 7))
        assert results == EXPECTED
        assert counters["pool_rebuilds"] >= 1
        assert counters["tasks_recovered"] >= 2

    def test_crash_budget_exhausted_finishes_serially(self):
        # Task 0 crashes the first pool and both rebuilds: the rest of
        # the run finishes serially with identical results.
        plan = FaultPlan.of(
            *(
                FaultSpec(task_index=0, attempt=attempt, kind="crash")
                for attempt in range(MAX_POOL_REBUILDS + 1)
            )
        )
        results, counters = run(plan)
        assert results == EXPECTED
        assert counters["pool_rebuilds"] == MAX_POOL_REBUILDS

    def test_tasks_that_kill_every_worker_finish_serially(self):
        # A real worker death, no fault plan: every pooled attempt dies,
        # so each pool breaks until the budget is spent, and the serial
        # fallback in this process returns the results.
        tasks = [(os.getpid(), task) for task in TASKS]
        results, counters = run(fn=square_in, tasks=tasks)
        assert results == EXPECTED
        assert counters["pool_rebuilds"] == 2
        assert counters["tasks_recovered"] == len(TASKS)

    def test_serial_run_simulates_crashes(self):
        # workers=1 has no process to kill; the same schedule must be
        # honoured in-process and bounded by the rebuild budget.
        results, counters = run(FaultPlan.crash_at(1, 5), workers=1)
        assert results == EXPECTED
        assert counters["pool_rebuilds"] == 2
        assert counters["tasks_recovered"] == 2


class TestTaskErrors:
    def test_error_raises_original_exception(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=4, attempt=0, kind="error", message="dead")
        )
        with pytest.raises(InjectedFaultError, match="dead"):
            run(plan)

    def test_error_in_report_mode_yields_task_failure(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=4, attempt=0, kind="error", message="a")
        )
        results, counters = run(plan, failure_mode="report")
        assert results[4] == TaskFailure(
            index=4, kind="exception", attempts=1,
            message="InjectedFaultError: a",
        )
        assert counters["tasks_failed"] == 1
        # Every other slot is untouched by the one failure.
        assert results[:4] == EXPECTED[:4]
        assert results[5:] == EXPECTED[5:]

    def test_serial_crash_past_the_budget_raises_task_failure_error(self):
        plan = FaultPlan.of(
            *(
                FaultSpec(task_index=6, attempt=attempt, kind="crash")
                for attempt in range(MAX_POOL_REBUILDS + 1)
            )
        )
        with pytest.raises(TaskFailureError) as excinfo:
            run(plan, workers=1)
        assert excinfo.value.failure.kind == "crashed"


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_independent_of_worker_count(self, workers):
        plan = FaultPlan.of(
            FaultSpec(task_index=1, attempt=0, kind="crash"),
            FaultSpec(task_index=8, attempt=0, kind="slow", seconds=0.01),
        )
        results, __ = run(plan, workers=workers)
        assert results == EXPECTED

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failure_independent_of_worker_count(self, workers):
        plan = FaultPlan.of(
            FaultSpec(task_index=5, attempt=0, kind="error", message="x"),
            FaultSpec(task_index=8, attempt=0, kind="slow", seconds=0.01),
        )
        results, __ = run(plan, workers=workers, failure_mode="report")
        assert results[5] == TaskFailure(
            index=5, kind="exception", attempts=1,
            message="InjectedFaultError: x",
        )
        assert results[:5] + results[6:] == EXPECTED[:5] + EXPECTED[6:]

    def test_task_order_preserved_under_chaos(self):
        # A crash and a failure must never permute the output slots.
        # Task 0 fails on every attempt: the crash may break the pool
        # before task 0's first attempt reports, and it then runs again.
        plan = FaultPlan.of(
            FaultSpec(task_index=9, attempt=0, kind="crash"),
            *(
                FaultSpec(task_index=0, attempt=attempt, kind="error")
                for attempt in range(MAX_POOL_REBUILDS + 1)
            ),
        )
        results, __ = run(plan, failure_mode="report")
        assert isinstance(results[0], TaskFailure)
        assert results[1:] == EXPECTED[1:]

    def test_seeded_plan_is_reproducible(self):
        one = FaultPlan.seeded(7, 32, crash_rate=0.1, error_rate=0.1)
        two = FaultPlan.seeded(7, 32, crash_rate=0.1, error_rate=0.1)
        assert one == two
        assert any(s.kind == "crash" for s in one.specs)

    def test_plain_path_unchanged(self):
        # No plan/counters: the legacy contract — results and worker
        # count, no supervision machinery involved.
        results, used = map_tasks(square, TASKS, 2, what="squares")
        assert results == EXPECTED
        assert used == 2
