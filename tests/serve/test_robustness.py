"""Fault tolerance of the serving layer.

Chaos through the front door: deterministic
:class:`~repro.faults.FaultPlan` schedules run through a real
:class:`Server` (and daemon), asserting the acceptance contract — a
seeded plan killing two workers yields results bit-identical to a
fault-free run with the recovery visible in ``stats()``; a failing
task fails only its own job; the drain deadline fails fast instead of
hanging.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.serve import (
    ServeDaemon,
    Server,
    ServerConfig,
    ServerStoppedError,
)
from repro.serve.jobs import JobRequest
from repro.specs import algorithm_spec_from_text, workload_spec_from_text

WORKLOAD = workload_spec_from_text("synthetic:24:seed=5")
GREEDY = algorithm_spec_from_text("greedy")


def submit_n(server, count, algorithm=GREEDY, workload=WORKLOAD):
    return [
        server.submit(
            JobRequest(workload=workload, fraction=0.5, algorithm=algorithm)
        )
        for __ in range(count)
    ]


def run_batch(config, count=4, algorithm=GREEDY, workload=WORKLOAD):
    """Run ``count`` jobs as one batch: they queue before ``start()``,
    so the dispatcher takes them together and each plan's
    ``(task_index, attempt)`` addresses land in one group."""
    server = Server(config)
    ids = submit_n(server, count, algorithm, workload)
    server.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            payloads = [
                server.await_result(job_id, timeout=120).to_payload()
                for job_id in ids
            ]
        return payloads, server.stats()
    finally:
        server.shutdown()


class TestFaultRecovery:
    def test_two_killed_workers_bit_identical(self):
        # The acceptance scenario: a plan killing two of four workers
        # mid-batch; the merged output must match a fault-free run and
        # the recovery must be visible in /stats.
        baseline, __ = run_batch(ServerConfig(workers=4))
        plan = FaultPlan.crash_at(0, 1)
        chaotic, stats = run_batch(ServerConfig(workers=4, fault_plan=plan))
        assert all(p["state"] == "done" for p in chaotic)
        assert [p["result"] for p in baseline] == [
            p["result"] for p in chaotic
        ]
        robustness = stats["robustness"]
        assert robustness["pool_rebuilds"] >= 1
        assert robustness["tasks_recovered"] >= 2

    def test_exhausted_failure_is_structured(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=0, attempt=0, kind="error", message="a")
        )
        payloads, stats = run_batch(
            ServerConfig(workers=2, fault_plan=plan), count=2
        )
        assert [p["state"] for p in payloads] == ["failed", "done"]
        assert payloads[0]["error"]["failure_kind"] == "exception"
        assert stats["robustness"] == {
            "pool_rebuilds": 0, "tasks_failed": 1, "tasks_recovered": 0,
        }


class TestDispatcherLiveness:
    def test_await_result_fails_fast_when_dispatcher_dies(self):
        # A dispatcher body that exits silently (the pathological case
        # the liveness probe exists for): jobs stay queued forever, and
        # await_result must raise instead of hanging.
        server = Server(ServerConfig(workers=1))
        server._dispatch_forever = lambda: None
        server.start()
        try:
            (job_id,) = submit_n(server, 1)
            with pytest.raises(ServerStoppedError):
                server.await_result(job_id, timeout=30)
        finally:
            server._stopping = True

    def test_dispatcher_crash_fails_pending_jobs(self):
        # A crash inside the loop must resolve every pending job with a
        # structured server-stopped error, not leave pollers hanging.
        # The crash boundary re-raises after failing the jobs; hook the
        # thread excepthook so that *expected* re-raise stays quiet.
        release = threading.Event()

        def dying_loop():
            release.wait(30)
            raise RuntimeError("injected dispatcher crash")

        server = Server(ServerConfig(workers=1))
        server._dispatch_forever = dying_loop
        previous_hook = threading.excepthook
        threading.excepthook = lambda args: None
        try:
            server.start()
            (job_id,) = submit_n(server, 1)
            release.set()
            record = server.await_result(job_id, timeout=30)
            thread = server._thread
            if thread is not None:
                thread.join(timeout=10)
        finally:
            threading.excepthook = previous_hook
        assert record.state == "failed"
        assert record.error["code"] == "server-stopped"
        assert "injected dispatcher crash" in str(record.error["message"])


# ----------------------------------------------------------------------
# Daemon surface
# ----------------------------------------------------------------------
def _url(daemon, path):
    host, port = daemon.address
    return f"http://{host}:{port}{path}"


def _post_job(daemon):
    body = json.dumps(
        {"workload": "synthetic:24:seed=5", "fraction": 0.5}
    ).encode()
    request = urllib.request.Request(
        _url(daemon, "/jobs"),
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read()), reply.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class TestDaemonRobustness:
    def test_submit_during_shutdown_is_503_with_retry_after(self):
        daemon = ServeDaemon(ServerConfig(), port=0).start()
        try:
            # Stop intake without tearing down the HTTP loop, exactly
            # the drain window a SIGTERM opens.
            daemon.server.shutdown(drain=True)
            status, payload, headers = _post_job(daemon)
            assert status == 503
            assert payload["error"]["code"] == "server-stopped"
            assert headers["Retry-After"] is not None
        finally:
            daemon.close()

    def test_drain_deadline_unwedges_stuck_job(self):
        # A job hung by an injected 30 s stall cannot wedge shutdown:
        # the drain deadline force-fails it and close() returns.
        plan = FaultPlan.of(
            FaultSpec(task_index=0, attempt=0, kind="slow", seconds=30.0)
        )
        daemon = ServeDaemon(
            ServerConfig(fault_plan=plan),
            port=0,
            drain_deadline_seconds=0.5,
        ).start()
        status, payload, __ = _post_job(daemon)
        assert status == 202
        job_id = payload["job_id"]
        time.sleep(0.1)  # let the dispatcher pick the job up
        started = time.monotonic()
        daemon.close()
        assert time.monotonic() - started < 10.0
        record = daemon.server.record(job_id)
        assert record.finished
        assert record.error is not None
        assert record.error["code"] == "server-stopped"

    @pytest.mark.parametrize("seconds", [0.0, math.nan, math.inf])
    def test_drain_deadline_validation(self, seconds):
        # A NaN deadline used to start a daemon whose close() raised
        # from Thread.join before the socket was closed.
        with pytest.raises(ValueError, match="drain_deadline_seconds"):
            ServeDaemon(
                ServerConfig(), port=0, drain_deadline_seconds=seconds
            )
