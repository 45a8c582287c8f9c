"""Shared process fan-out with crash recovery and a serial fallback.

The explore grids, the scenario suite and the batch server all fan
tasks out the same way: a
``ProcessPoolExecutor`` warmed by a probe submission (worker processes
spawn lazily, so an unusable pool — no fork, no sem_open — may only
surface then), degrading to a serial in-process run when the pool
cannot be built, and re-raising genuine task errors as themselves.
Results always come back in task order, so a caller's merge is
deterministic regardless of worker scheduling.

On top of that baseline, :func:`map_tasks` supervises the pool:

* **Pool resurrection with salvage.**  A worker dying mid-run
  (``BrokenProcessPool``) does not re-run the whole batch serially:
  results already completed are salvaged, the pool is rebuilt (at most
  :data:`MAX_POOL_REBUILDS` times), and only the lost tasks run again —
  the merged output stays bit-identical to a fault-free serial run in
  task order.  When the rebuild budget is exhausted the remaining tasks
  finish serially in-process.
* **Structured failure reports.**  ``failure_mode="report"`` puts a
  :class:`~repro.faults.TaskFailure` in a failed task's result slot
  instead of losing the batch; ``failure_mode="raise"`` (the default)
  raises the task's own exception.
* **Deterministic fault injection.**  A
  :class:`~repro.faults.FaultPlan` threads through to the workers, so
  chaos runs (crash / error / slow schedules) are reproducible and
  assertable.

When telemetry is enabled (:mod:`repro.telemetry`), each pooled worker
runs its task under a fresh, isolated trace and ships that subtrace
back alongside the result; the parent absorbs each task's subtrace in
task order, so the merged trace is deterministic and matches what a
serial run records in place.  Supervision events surface as counters
(``pool_rebuilds``, ``tasks_failed``, ``tasks_recovered``) both in
telemetry and in an optional ``counters`` sink dict for callers that
keep their own books.

This module sits below every repro subsystem except the (equally leaf)
telemetry and faults layers, so the search layer can use it without
creating an import cycle with :mod:`repro.explore`.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from typing import Callable, Iterable, MutableMapping, TypeVar

from repro import telemetry
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    InjectedFaultError,
    TaskFailure,
    TaskFailureError,
    WorkerCrashError,
)

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: Errors meaning "the pool itself is unusable" when raised at build /
#: probe time (as opposed to errors a task raised while running).
_POOL_BUILD_ERRORS = (OSError, ImportError, NotImplementedError, BrokenExecutor)

#: Pool rebuilds one :func:`map_tasks` call allows after worker crashes
#: before the remaining tasks finish serially in-process.
MAX_POOL_REBUILDS = 2


class _TracedCall:
    """Picklable wrapper running ``fn`` under a per-task subtrace.

    Pool workers are long-lived, so recording into the worker's ambient
    trace would accumulate across tasks and double-count once merged;
    a fresh :class:`~repro.telemetry.Trace` per call keeps each task's
    spans isolated.  Returns ``(result, subtrace)``; the subtrace is
    ``None`` when telemetry is disabled in the worker (e.g. the parent
    enabled it programmatically but the env var switches it off in
    spawned children).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_Task], _Result]) -> None:
        self.fn = fn

    def __call__(self, task: _Task) -> tuple[_Result, telemetry.Trace | None]:
        if not telemetry.enabled():
            return self.fn(task), None
        with telemetry.use_trace(telemetry.Trace()) as trace:
            result = self.fn(task)
        return result, trace


def _inject(
    plan: FaultPlan | None, index: int, attempt: int, pooled: bool
) -> None:
    """Fire the fault ``plan`` schedules at ``(index, attempt)``, if any:
    a ``crash`` kills a pooled worker (in-process it raises
    :class:`~repro.faults.WorkerCrashError`), an ``error`` raises, a
    ``slow`` sleeps before the task runs."""
    spec = plan.lookup(index, attempt) if plan is not None else None
    if spec is None:
        return
    if spec.kind == "crash":
        if pooled:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected crash at task {index} attempt {attempt}"
        )
    if spec.kind == "error":
        raise InjectedFaultError(
            spec.message or f"injected fault at task {index} attempt {attempt}"
        )
    time.sleep(spec.seconds)


class _GuardedCall:
    """The pooled per-attempt wrapper: fault injection, then the task
    under a per-task subtrace.  Receives ``(index, attempt, task)`` so
    the fault plan is consulted *inside* the worker — a ``crash`` fault
    genuinely kills the worker process, not a simulation."""

    __slots__ = ("fn", "plan")

    def __init__(
        self, fn: Callable[[_Task], _Result], plan: FaultPlan | None
    ) -> None:
        self.fn = fn
        self.plan = plan

    def __call__(
        self, unit: tuple[int, int, _Task]
    ) -> tuple[_Result, telemetry.Trace | None]:
        index, attempt, task = unit
        _inject(self.plan, index, attempt, pooled=True)
        return _TracedCall(self.fn)(task)


class _PoolUnavailable(Exception):
    """Internal: the first pool build / probe failed (full serial
    fallback, exactly the historical behaviour)."""

    def __init__(self, error: BaseException) -> None:
        super().__init__(str(error))
        self.error = error


class _MapRun:
    """One :func:`map_tasks` invocation's supervision state."""

    def __init__(
        self,
        fn: Callable[[_Task], _Result],
        tasks: list[_Task],
        workers: int,
        what: str,
        plan: FaultPlan | None,
        failure_mode: str,
        counters: MutableMapping[str, int] | None,
        serial_runner: Callable[[_Task], _Result] | None,
    ) -> None:
        self.tasks = tasks
        self.workers = workers
        self.what = what
        self.plan = plan
        self.failure_mode = failure_mode
        self.counters = counters
        #: What a serial attempt calls instead of ``fn`` (see map_tasks).
        self.serial_fn = serial_runner or fn
        n = len(tasks)
        self.results: list[object] = [None] * n
        self.traces: list[telemetry.Trace | None] = [None] * n
        #: Submissions so far per task — the fault plan's attempt axis.
        self.attempts = [0] * n
        #: Tasks a crash took down on the way (feeds the
        #: ``tasks_recovered`` counter when they still succeed).
        self.disturbed = [False] * n
        self.rebuild_budget = MAX_POOL_REBUILDS
        self.wrapper = _GuardedCall(fn, plan)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def count(self, name: str) -> None:
        telemetry.count(name)
        if self.counters is not None:
            self.counters[name] = self.counters.get(name, 0) + 1

    def succeed(
        self, index: int, value: object, trace: telemetry.Trace | None
    ) -> None:
        self.results[index] = value
        self.traces[index] = trace
        if self.disturbed[index]:
            self.count("tasks_recovered")

    def fail(
        self,
        index: int,
        kind: str,
        message: str,
        error: BaseException | None = None,
    ) -> None:
        """Settle a task as failed: raise, or report a
        :class:`~repro.faults.TaskFailure` in its slot."""
        failure = TaskFailure(
            index=index,
            kind=kind,
            attempts=self.attempts[index],
            message=message,
        )
        self.count("tasks_failed")
        if self.failure_mode == "raise":
            if error is not None:
                raise error
            raise TaskFailureError(failure)
        self.results[index] = failure

    # ------------------------------------------------------------------
    # Serial execution (workers == 1, pool fallback, crash exhaustion)
    # ------------------------------------------------------------------
    def run_one_serial(self, index: int) -> None:
        while True:
            attempt = self.attempts[index]
            self.attempts[index] += 1
            try:
                _inject(self.plan, index, attempt, pooled=False)
                value = self.serial_fn(self.tasks[index])
            except WorkerCrashError as error:
                self.disturbed[index] = True
                if self.rebuild_budget > 0:
                    # Parity with the pooled path: a crash consumes the
                    # rebuild budget, and the task runs again.
                    self.rebuild_budget -= 1
                    self.count("pool_rebuilds")
                    continue
                self.fail(index, "crashed", str(error))
                return
            except Exception as error:  # noqa: BLE001 - classified below
                self.fail(
                    index,
                    "exception",
                    f"{type(error).__name__}: {error}",
                    error=error,
                )
                return
            self.succeed(index, value, None)
            return

    def run_serial(self, indices: Iterable[int]) -> None:
        for index in indices:
            self.run_one_serial(index)

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def run_pooled(self) -> None:
        pending = list(range(len(self.tasks)))
        first = True
        while pending:
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending))
                )
                pool.submit(os.getpid).result()  # force a worker to spawn
            except _POOL_BUILD_ERRORS as error:
                if first:
                    raise _PoolUnavailable(error) from error
                warnings.warn(
                    f"cannot rebuild worker pool ({error}); finishing "
                    f"{len(pending)} {self.what} serially",
                    RuntimeWarning,
                    stacklevel=4,
                )
                self.run_serial(pending)
                return
            first = False
            pending = self.drive_pool(pool, pending)
            if not pending:
                return
            if self.rebuild_budget <= 0:
                warnings.warn(
                    f"worker pool crash budget exhausted; finishing "
                    f"{len(pending)} {self.what} serially",
                    RuntimeWarning,
                    stacklevel=4,
                )
                self.run_serial(pending)
                return
            self.rebuild_budget -= 1
            warnings.warn(
                f"worker pool broke mid-run; salvaged completed "
                f"{self.what}, re-running {len(pending)} lost task(s) "
                "on a fresh pool",
                RuntimeWarning,
                stacklevel=4,
            )
            self.count("pool_rebuilds")

    def drive_pool(
        self, pool: ProcessPoolExecutor, indices: list[int]
    ) -> list[int]:
        """Run ``indices`` on one pool until it empties or breaks.

        Returns the tasks a broken pool lost, which must re-run on a
        fresh pool (or serially); empty when every task settled.
        """
        inflight: dict[Future, int] = {}
        lost: list[int] = []

        def harvest(future: Future, index: int) -> None:
            """Settle one finished attempt; a pool break loses it."""
            error = future.exception()
            if error is None:
                value, subtrace = future.result()
                self.succeed(index, value, subtrace)
            elif isinstance(error, BrokenExecutor):
                self.disturbed[index] = True
                lost.append(index)
            else:
                self.fail(
                    index,
                    "exception",
                    f"{type(error).__name__}: {error}",
                    error=error,
                )

        try:
            for position, index in enumerate(indices):
                unit = (index, self.attempts[index], self.tasks[index])
                try:
                    inflight[pool.submit(self.wrapper, unit)] = index
                except BrokenExecutor:
                    for unsent in indices[position:]:
                        self.disturbed[unsent] = True
                    lost.extend(indices[position:])
                    break
                self.attempts[index] += 1
            while inflight and not lost:
                done, _ = futures_wait(
                    set(inflight), return_when=FIRST_COMPLETED
                )
                for future in done:
                    harvest(future, inflight.pop(future))
            # The pool broke: salvage the attempts that finished; the
            # rest re-run (a task's value never depends on which pool
            # ran it, so the salvaged output stays bit-identical).
            for future, index in inflight.items():
                if future.done():
                    harvest(future, index)
                else:
                    self.disturbed[index] = True
                    lost.append(index)
            return sorted(lost)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def map_tasks(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task],
    max_workers: int,
    *,
    what: str = "tasks",
    serial_runner: Callable[[_Task], _Result] | None = None,
    fault_plan: FaultPlan | None = None,
    failure_mode: str = "raise",
    counters: MutableMapping[str, int] | None = None,
) -> tuple[list[_Result], int]:
    """``[fn(t) for t in tasks]`` across worker processes, in task order.

    Returns ``(results, workers_used)``.  ``max_workers <= 1`` or a
    single task runs serially in-process, under the same supervision
    (fault plan, failure reports) as a pooled run; ``serial_runner`` is
    the per-task callable a serial attempt runs instead of ``fn``
    (callers use it to thread per-call caches through instead of
    repickling state per task).  An unusable pool (surfaced at
    construction or by the warm-up probe) falls back to a serial run
    with a warning.

    A task's own exception propagates, so the fallback never re-runs
    work that would fail anyway.  A worker dying mid-run salvages
    completed results, rebuilds the pool (at most
    :data:`MAX_POOL_REBUILDS` times, then the rest runs serially), and
    re-runs only the lost tasks — the merged output is bit-identical to
    a fault-free serial run.  ``failure_mode="report"`` returns a
    :class:`~repro.faults.TaskFailure` in a failed task's slot instead
    of raising.  ``fault_plan`` injects a deterministic
    :class:`~repro.faults.FaultPlan` (tests / chaos benchmarks).
    ``counters`` receives the supervision counters (``pool_rebuilds``,
    ``tasks_failed``, ``tasks_recovered``) in addition to telemetry.
    """
    tasks = list(tasks)
    if failure_mode not in ("raise", "report"):
        raise ValueError(
            f"failure_mode must be 'raise' or 'report', got {failure_mode!r}"
        )
    run = _MapRun(
        fn,
        tasks,
        max(1, max_workers),
        what,
        fault_plan,
        failure_mode,
        counters,
        serial_runner,
    )
    workers = run.workers
    if workers == 1 or len(tasks) <= 1:
        run.run_serial(range(len(tasks)))
        return run.results, 1  # type: ignore[return-value]
    try:
        run.run_pooled()
    except _PoolUnavailable as unavailable:
        warnings.warn(
            f"process pool unavailable ({unavailable.error}); running "
            f"{what} serially",
            RuntimeWarning,
            stacklevel=2,
        )
        run.run_serial(range(len(tasks)))
        return run.results, 1  # type: ignore[return-value]
    # Absorb each task's subtrace in task order: a deterministic merge
    # no matter how the pool scheduled the work.
    for trace in run.traces:
        if trace is not None:
            telemetry.absorb(trace)
    return run.results, workers  # type: ignore[return-value]
