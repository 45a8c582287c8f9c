"""Deterministic fault injection and the structured failure record.

Chaos testing is only useful when a failing run can be replayed: this
module provides the seed-driven, picklable :class:`FaultPlan` that
:func:`repro.parallel.map_tasks`, the serving layer, the fault tests and
``benchmarks/bench_chaos.py`` all thread through.  A plan is a static
schedule — every fault is addressed by ``(task_index, attempt)`` — so a
chaos run is exactly as reproducible as a fault-free one and its
assertions never flake.

Three fault kinds cover the failure modes a process pool actually has:

``crash``
    The worker process dies mid-task (``os._exit``), breaking the pool.
    In a serial/in-process run (where there is no process to kill) the
    same schedule raises :class:`WorkerCrashError` instead, which is
    recovered exactly like a pool break, so results stay worker-count
    independent.
``error``
    The task raises :class:`InjectedFaultError` — an ordinary task
    exception, which fails the task.
``slow``
    The task sleeps ``seconds`` before running; latency injection for
    drain-deadline and p99 assertions.

The module also owns the structured :class:`TaskFailure` record that
replaces "the whole batch died" as a failure report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "TaskFailure",
    "TaskFailureError",
    "WorkerCrashError",
]

#: The schedulable fault kinds.
FAULT_KINDS = ("crash", "error", "slow")

#: Exit status an injected crash kills the worker with (distinctive, so
#: a pool-break in a chaos run is attributable at a glance).
CRASH_EXIT_CODE = 23


class InjectedFaultError(RuntimeError):
    """The exception an ``error`` fault raises inside the task."""


class WorkerCrashError(RuntimeError):
    """A ``crash`` fault simulated in-process (serial runs have no
    worker process to kill); handled like a pool break, bounded by the
    same pool-rebuild budget."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what happens when task ``task_index`` runs
    its ``attempt``-th execution (attempts count from 0)."""

    task_index: int
    attempt: int
    kind: str
    #: Sleep length for ``slow`` faults (ignored otherwise).
    seconds: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.task_index < 0:
            raise ValueError("task_index must be >= 0")
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of injected faults.

    Address space: ``(task_index, attempt)`` within one
    :func:`repro.parallel.map_tasks` call — a worker consults the plan
    with its task's index and how many times that task has been
    submitted so far.  At most one fault fires per address (the first
    matching spec wins).  Plans are data, not behaviour: shipping one to
    a pool worker costs one small pickle and cannot drift between runs.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    def lookup(self, task_index: int, attempt: int) -> FaultSpec | None:
        """The fault scheduled at this address, if any."""
        for spec in self.specs:
            if spec.task_index == task_index and spec.attempt == attempt:
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        """A plan from explicit fault specs (the assertable test form)."""
        return cls(specs=tuple(specs))

    @classmethod
    def crash_at(cls, *task_indices: int, attempt: int = 0) -> "FaultPlan":
        """Kill the worker running each listed task once (attempt 0 by
        default); the canonical "N workers die mid-run" chaos schedule."""
        return cls(
            specs=tuple(
                FaultSpec(task_index=index, attempt=attempt, kind="crash")
                for index in task_indices
            )
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        task_count: int,
        *,
        crash_rate: float = 0.0,
        error_rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_seconds: float = 0.01,
        attempt: int = 0,
    ) -> "FaultPlan":
        """A reproducible random schedule: each first-attempt execution
        independently draws one fault (or none) from the given rates."""
        if crash_rate + error_rate + slow_rate > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for index in range(task_count):
            draw = rng.random()
            if draw < crash_rate:
                specs.append(FaultSpec(index, attempt, "crash"))
            elif draw < crash_rate + error_rate:
                specs.append(
                    FaultSpec(
                        index, attempt, "error",
                        message=f"seeded fault (seed={seed})",
                    )
                )
            elif draw < crash_rate + error_rate + slow_rate:
                specs.append(
                    FaultSpec(index, attempt, "slow", seconds=slow_seconds)
                )
        return cls(specs=tuple(specs), seed=seed)


@dataclass(frozen=True)
class TaskFailure:
    """The structured per-task report of an exhausted failure.

    ``kind`` is ``"exception"`` (the task raised) or ``"crashed"`` (an
    in-process simulated crash outlived the pool-rebuild budget).  In
    ``failure_mode="report"`` runs these occupy the failed task's result
    slot so one failing task no longer loses the whole batch; in
    ``failure_mode="raise"`` runs they surface as the task's own
    exception (or a :class:`TaskFailureError`).
    """

    index: int
    kind: str
    attempts: int
    message: str

    def describe(self) -> str:
        return (
            f"task {self.index} failed ({self.kind}) after "
            f"{self.attempts} attempt(s): {self.message}"
        )


class TaskFailureError(RuntimeError):
    """Raised in ``failure_mode="raise"`` for failures that have no
    original exception object (simulated crashes)."""

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure

