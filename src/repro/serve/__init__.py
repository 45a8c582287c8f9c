"""Partitioning-as-a-service: the async batch server.

The paper partitions one workload once; this subsystem serves
partitioning decisions as infrastructure.  Jobs (workload spec ×
platform spec × constraint × algorithm) queue into a bounded queue,
batch by their (workload × platform) fingerprint onto one priced
:class:`~repro.partition.packed.PackedCostTable` held in a
capacity-bounded LRU, and fan out over a freshly forked
:func:`repro.parallel.map_tasks` pool per multi-job group — with
structured backpressure, per-job queue timeouts, and graceful drain.
Each job runs through :func:`repro.job.run_job`, the CLI's path.

Two entry points:

* :class:`Server` — the in-process API (tests, benches, embedding);
* :mod:`repro.serve.daemon` / ``python -m repro serve`` — the same
  server behind a stdlib JSON-over-HTTP front.
"""

from .cache import LruCache, PricedTableCache
from .daemon import ServeDaemon, run_daemon
from .jobs import (
    ExpiredJobError,
    JobError,
    JobRecord,
    JobRequest,
    JobValidationError,
    QueueFullError,
    UnknownJobError,
)
from .server import Server, ServerConfig, ServerStoppedError

__all__ = [
    "ExpiredJobError",
    "JobError",
    "JobRecord",
    "JobRequest",
    "JobValidationError",
    "LruCache",
    "PricedTableCache",
    "QueueFullError",
    "ServeDaemon",
    "Server",
    "ServerConfig",
    "ServerStoppedError",
    "UnknownJobError",
    "run_daemon",
]
