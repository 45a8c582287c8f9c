"""Job model of the partitioning service.

A *job* is one partitioning request — workload spec × platform spec ×
timing constraint × algorithm — submitted to a
:class:`~repro.serve.server.Server`, tracked through a small state
machine::

    queued -> running -> done | failed
    queued -> timeout            (deadline passed before dispatch)
    queued -> cancelled          (client cancel / non-drain shutdown)
    queued -> rejected           (never recorded: the submit raised)

Requests arrive either as Python objects (:class:`JobRequest`) or as
the JSON payload the daemon accepts (:meth:`JobRequest.from_payload`);
outcomes leave as plain-dict payloads (:meth:`JobRecord.to_payload`) so
the in-process API and the HTTP API serve byte-identical answers.
Failures are *structured*: every terminal error carries a stable
``code`` (``timeout``, ``cancelled``, ``queue-full``, ``invalid-request``,
``job-failed``) next to its human-readable message; a poll answers
``unknown-job`` for an id never issued and ``expired`` for a finished
job whose record the server no longer keeps.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..explore.space import PlatformSpec, WorkloadSpec
from ..job import Job
from ..partition.result import PartitionResult
from ..search.base import AlgorithmSpec
from ..specs import algorithm_spec_from_text, workload_spec_from_text

__all__ = [
    "ExpiredJobError",
    "JobError",
    "JobRecord",
    "JobRequest",
    "JobValidationError",
    "QueueFullError",
    "TERMINAL_STATES",
    "UnknownJobError",
]

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "timeout", "cancelled")

_PLATFORM_FIELDS = (
    "afpga",
    "cgc_count",
    "clock_ratio",
    "reconfig_cycles",
    "rows",
    "cols",
)


class JobError(Exception):
    """Base of every structured serving error; carries a stable code."""

    code = "job-error"

    def to_payload(self) -> dict[str, object]:
        return {"code": self.code, "message": str(self)}


class JobValidationError(JobError):
    """The request itself is malformed (bad spec text, missing field)."""

    code = "invalid-request"


class UnknownJobError(JobError):
    """A poll/await named a job id the server never issued."""

    code = "unknown-job"


class ExpiredJobError(UnknownJobError):
    """A poll/await named a finished job whose record was dropped."""

    code = "expired"


class QueueFullError(JobError):
    """Backpressure: the bounded queue rejected the submission.

    ``retry_after_seconds`` estimates when capacity will free up (queue
    depth × recent per-job seconds over the worker count); the daemon
    surfaces it as an HTTP 429 ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_seconds: float) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds

    code = "queue-full"

    def to_payload(self) -> dict[str, object]:
        payload = super().to_payload()
        payload["retry_after_seconds"] = round(self.retry_after_seconds, 3)
        return payload


@dataclass(frozen=True)
class JobRequest:
    """One partitioning request, fully described by picklable specs.

    Exactly one of ``constraint`` (absolute FPGA cycles) or ``fraction``
    (of the pair's all-FPGA cycle count) must be set.  The server runs
    :attr:`job` through :func:`~repro.job.run_job`, exactly as
    ``python -m repro partition`` does.
    """

    workload: WorkloadSpec
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    constraint: int | None = None
    fraction: float | None = None
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec.greedy)
    #: Seconds from submission until the job is abandoned if it has not
    #: *started*; ``None`` uses the server default (which may be no
    #: timeout at all).
    timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        try:
            _ = self.job  # the job checks the target
        except ValueError as error:
            raise JobValidationError(str(error)) from None
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise JobValidationError("'timeout_seconds' must be >= 0")

    @property
    def job(self) -> Job:
        return Job(
            self.workload, self.platform, self.algorithm,
            () if self.constraint is None else (self.constraint,),
            () if self.fraction is None else (self.fraction,),
        )

    @property
    def pair_key(self) -> tuple[WorkloadSpec, PlatformSpec]:
        """The batching fingerprint: jobs sharing it price one table."""
        return (self.workload, self.platform)

    @classmethod
    def from_payload(cls, payload: object) -> "JobRequest":
        """Decode the JSON job format (raises :class:`JobValidationError`).

        ::

            {"workload": "synthetic:32:seed=1",
             "platform": {"afpga": 1500, "cgc_count": 2},   # optional
             "fraction": 0.5,            # or "constraint": 123456
             "algorithm": "greedy",       # optional
             "timeout_seconds": 30.0}     # optional
        """
        if not isinstance(payload, dict):
            raise JobValidationError(
                f"job payload must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {
            "workload", "platform", "constraint", "fraction", "algorithm",
            "timeout_seconds",
        }
        if unknown:
            raise JobValidationError(
                f"unknown job field(s): {', '.join(sorted(unknown))}"
            )
        workload_text = payload.get("workload")
        if not isinstance(workload_text, str):
            raise JobValidationError("'workload' (a spec string) is required")
        try:
            workload = workload_spec_from_text(workload_text)
        except ValueError as error:
            raise JobValidationError(str(error)) from None
        algorithm_text = payload.get("algorithm", "greedy")
        if not isinstance(algorithm_text, str):
            raise JobValidationError("'algorithm' must be a spec string")
        try:
            algorithm = algorithm_spec_from_text(algorithm_text)
        except ValueError as error:
            raise JobValidationError(str(error)) from None
        platform = _platform_from_payload(payload.get("platform"))
        constraint = payload.get("constraint")
        if constraint is not None and not isinstance(constraint, int):
            raise JobValidationError("'constraint' must be an integer")
        fraction = payload.get("fraction")
        if fraction is not None:
            if isinstance(fraction, bool) or not isinstance(
                fraction, (int, float)
            ):
                raise JobValidationError("'fraction' must be a number")
            fraction = float(fraction)
        timeout = payload.get("timeout_seconds")
        if timeout is not None:
            if isinstance(timeout, bool) or not isinstance(
                timeout, (int, float)
            ):
                raise JobValidationError("'timeout_seconds' must be a number")
            timeout = float(timeout)
        return cls(
            workload=workload,
            platform=platform,
            constraint=constraint,
            fraction=fraction,
            algorithm=algorithm,
            timeout_seconds=timeout,
        )

    def describe(self) -> str:
        return self.job.describe()


def _platform_from_payload(payload: object) -> PlatformSpec:
    if payload is None:
        return PlatformSpec()
    if not isinstance(payload, dict):
        raise JobValidationError("'platform' must be a JSON object")
    unknown = set(payload) - set(_PLATFORM_FIELDS)
    if unknown:
        raise JobValidationError(
            f"unknown platform field(s): {', '.join(sorted(unknown))}"
        )
    kwargs: dict[str, int] = {}
    for name in _PLATFORM_FIELDS:
        if name in payload:
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise JobValidationError(
                    f"platform field {name!r} must be an integer"
                )
            kwargs[name] = value
    try:
        return PlatformSpec(**kwargs)
    except ValueError as error:
        raise JobValidationError(str(error)) from None


class JobRecord:
    """One job's lifecycle inside the server (thread-safe via the
    server's lock; the record itself only owns its completion event)."""

    __slots__ = (
        "job_id",
        "request",
        "state",
        "submitted_at",
        "started_at",
        "finished_at",
        "deadline",
        "result",
        "error",
        "done_event",
        "degraded",
    )

    def __init__(
        self,
        job_id: int,
        request: JobRequest,
        submitted_at: float,
        deadline: float | None,
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.state = "queued"
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.deadline = deadline
        self.result: PartitionResult | None = None
        self.error: dict[str, object] | None = None
        self.done_event = threading.Event()
        #: True when the search deadline expired and the greedy fallback
        #: answered instead of the requested algorithm.
        self.degraded = False

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def latency_seconds(self) -> float | None:
        """Submission-to-completion wall seconds (None while pending)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_payload(self) -> dict[str, object]:
        """The JSON answer for one poll of this job."""
        payload: dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state,
            "request": self.request.describe(),
        }
        if self.finished_at is not None:
            payload["latency_seconds"] = round(
                self.finished_at - self.submitted_at, 6
            )
        if self.result is not None:
            payload["result"] = _result_payload(self.result)
        if self.degraded:
            payload["degraded"] = True
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _result_payload(result: PartitionResult) -> dict[str, object]:
    """A :class:`PartitionResult` as the service's JSON result format.

    Carries every field a client needs to check bit-identity with a
    serial ``python -m repro partition`` run, including the per-step
    cycle splits.
    """
    return {
        "workload": result.workload_name,
        "platform": result.platform_name,
        "timing_constraint": result.timing_constraint,
        "initial_cycles": result.initial_cycles,
        "final_cycles": result.final_cycles,
        "fpga_cycles": result.fpga_cycles,
        "cycles_in_cgc": result.cycles_in_cgc,
        "comm_cycles": result.comm_cycles,
        "reduction_percent": round(result.reduction_percent, 3),
        "kernels_moved": result.kernels_moved,
        "moved_bb_ids": list(result.moved_bb_ids),
        "skipped_bb_ids": list(result.skipped_bb_ids),
        "reverted_bb_ids": list(result.reverted_bb_ids),
        "constraint_met": result.constraint_met,
        "partial": result.partial,
        "certified": result.certified,
        "steps": [
            {
                "moved_bb_id": step.moved_bb_id,
                "total_cycles": step.total_cycles,
                "fpga_cycles": step.fpga_cycles,
                "cgc_fpga_cycles": step.cgc_fpga_cycles,
                "comm_cycles": step.comm_cycles,
                "constraint_met": step.constraint_met,
            }
            for step in result.steps
        ],
    }
