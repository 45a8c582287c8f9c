"""Fault tolerance of the serving layer.

Chaos through the front door: deterministic
:class:`~repro.faults.FaultPlan` schedules run through a real
:class:`Server` (and daemon), asserting the acceptance contract — a
seeded plan killing two workers yields results bit-identical to a
fault-free run with the recovery visible in ``stats()``; an expired
search deadline returns best-so-far flagged uncertified; the breaker
and the drain deadline fail fast instead of hanging.
"""

from __future__ import annotations

import json
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
BIG_WORKLOAD = workload_spec_from_text("synthetic:64:seed=3")
GREEDY = algorithm_spec_from_text("greedy")
#: A million temperature levels run far past any millisecond deadline;
#: annealing polls it once per level, so the cut lands promptly.
LONG_ANNEALING = algorithm_spec_from_text("annealing:temp_levels=1000000")


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
        chaotic, stats = run_batch(
            ServerConfig(workers=4, task_retries=2, fault_plan=plan)
        )
        assert all(p["state"] == "done" for p in chaotic)
        assert [p["result"] for p in baseline] == [
            p["result"] for p in chaotic
        ]
        robustness = stats["robustness"]
        assert robustness["pool_rebuilds"] >= 1
        assert robustness["tasks_recovered"] >= 2

    def test_flaky_task_retries_then_succeeds(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=0, attempt=0, kind="error", message="flaky")
        )
        payloads, stats = run_batch(
            ServerConfig(
                workers=2,
                task_retries=1,
                retry_backoff_seconds=0.0,
                fault_plan=plan,
            ),
            count=2,
        )
        assert all(p["state"] == "done" for p in payloads)
        assert stats["robustness"]["task_retries"] == 1

    def test_exhausted_failure_is_structured(self):
        plan = FaultPlan.of(
            FaultSpec(task_index=0, attempt=0, kind="error", message="a"),
            FaultSpec(task_index=0, attempt=1, kind="error", message="b"),
        )
        payloads, stats = run_batch(
            ServerConfig(
                workers=2,
                task_retries=1,
                retry_backoff_seconds=0.0,
                fault_plan=plan,
            ),
            count=2,
        )
        failed = [p for p in payloads if p["state"] == "failed"]
        done = [p for p in payloads if p["state"] == "done"]
        assert len(failed) == 1 and len(done) == 1
        assert failed[0]["error"]["failure_kind"] == "exception"
        assert stats["robustness"]["tasks_failed"] == 1


class TestSearchDeadline:
    def test_expired_deadline_returns_uncertified(self):
        payloads, __ = run_batch(
            ServerConfig(workers=1, search_deadline_seconds=0.02),
            count=1,
            algorithm=LONG_ANNEALING,
            workload=BIG_WORKLOAD,
        )
        payload = payloads[0]
        assert payload["state"] == "done"
        assert payload["result"]["partial"] is True
        assert payload["result"]["certified"] is False
        assert "degraded" not in payload

    def test_degrade_falls_back_to_greedy(self):
        payloads, stats = run_batch(
            ServerConfig(
                workers=1,
                search_deadline_seconds=0.02,
                degrade_under_deadline=True,
            ),
            count=1,
            algorithm=LONG_ANNEALING,
            workload=BIG_WORKLOAD,
        )
        payload = payloads[0]
        assert payload["state"] == "done"
        assert payload["degraded"] is True
        # The fallback greedy run completed: certified.
        assert payload["result"]["certified"] is True
        assert stats["robustness"]["degraded_jobs"] == 1

    def test_greedy_jobs_never_degrade(self):
        payloads, stats = run_batch(
            ServerConfig(
                workers=1,
                search_deadline_seconds=60.0,
                degrade_under_deadline=True,
            ),
            count=2,
        )
        assert all(p["state"] == "done" for p in payloads)
        assert all("degraded" not in p for p in payloads)
        assert stats["robustness"]["degraded_jobs"] == 0


class TestCircuitBreaker:
    def persistent_crashes(self):
        return FaultPlan(
            specs=tuple(
                FaultSpec(task_index=0, attempt=a, kind="crash")
                for a in range(8)
            )
        )

    def test_breaker_trips_and_rejects(self):
        config = ServerConfig(
            workers=2,
            fault_plan=self.persistent_crashes(),
            breaker_threshold=2,
            breaker_cooldown_seconds=60.0,
        )
        server = Server(config).start()
        try:
            payloads = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for __ in range(3):
                    (job_id,) = submit_n(server, 1)
                    payloads.append(
                        server.await_result(job_id, timeout=120).to_payload()
                    )
            stats = server.stats()
        finally:
            server.shutdown()
        # Groups 1 and 2 fail on infrastructure; group 3 is rejected
        # fast by the now-open breaker with a retry hint.
        assert [p["state"] for p in payloads] == ["failed"] * 3
        assert payloads[2]["error"]["code"] == "circuit-open"
        assert payloads[2]["error"]["retry_after_seconds"] > 0
        robustness = stats["robustness"]
        assert robustness["breaker_trips"] == 1
        assert robustness["breaker_rejections"] == 1
        assert robustness["open_breakers"] == 1

    def test_user_errors_do_not_trip_breaker(self):
        # Task exceptions are the job's own problem, not the pool's;
        # the breaker must ignore them.
        plan = FaultPlan(
            specs=tuple(
                FaultSpec(task_index=0, attempt=a, kind="error", message="x")
                for a in range(4)
            )
        )
        config = ServerConfig(
            workers=2,
            fault_plan=plan,
            breaker_threshold=1,
            breaker_cooldown_seconds=60.0,
        )
        server = Server(config).start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for __ in range(2):
                    (job_id,) = submit_n(server, 1)
                    payload = server.await_result(
                        job_id, timeout=120
                    ).to_payload()
                    assert payload["state"] == "failed"
                    assert payload["error"]["code"] != "circuit-open"
            stats = server.stats()
        finally:
            server.shutdown()
        assert stats["robustness"]["breaker_trips"] == 0

    def test_clean_group_closes_half_open_breaker(self):
        # One persistently-crashing group trips the breaker; after the
        # cooldown a clean group resets it instead of re-tripping.
        config = ServerConfig(
            workers=2,
            fault_plan=self.persistent_crashes(),
            breaker_threshold=1,
            breaker_cooldown_seconds=0.05,
        )
        server = Server(config).start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                (first,) = submit_n(server, 1)
                failed = server.await_result(first, timeout=120).to_payload()
                assert failed["state"] == "failed"
                assert server.stats()["robustness"]["open_breakers"] == 1
                # Cooldown passes and the fault clears (the plan is per
                # batch, so drop it for the probe group).
                server.config = ServerConfig(
                    workers=2,
                    breaker_threshold=1,
                    breaker_cooldown_seconds=0.05,
                )
                time.sleep(0.1)  # past the cooldown: half-open
                (second,) = submit_n(server, 1)
                ok = server.await_result(second, timeout=120).to_payload()
            stats = server.stats()
        finally:
            server.shutdown()
        assert ok["state"] == "done"
        assert stats["robustness"]["open_breakers"] == 0


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

    def test_drain_deadline_validation(self):
        with pytest.raises(ValueError):
            ServeDaemon(ServerConfig(), port=0, drain_deadline_seconds=0.0)
