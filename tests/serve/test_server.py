"""The in-process batching server: queueing, batching, errors, drain.

Determinism tricks used throughout: jobs submitted *before*
``start()`` sit in the queue untouched, so queue-full, timeout-expiry
and cancellation tests never race the dispatcher; and the
``held_dispatcher`` / ``held_pricing`` fixtures park the dispatcher
inside its first job / first table resolve until the test releases
it, so jobs submitted meanwhile are known to queue behind it.
"""

import math
import threading
import time

import pytest

from repro import telemetry
from repro.explore import PlatformSpec, WorkloadSpec
from repro.job import Job
from repro.search import make_partitioner
from repro.serve import (
    ExpiredJobError,
    JobRequest,
    JobValidationError,
    PricedTableCache,
    QueueFullError,
    Server,
    ServerConfig,
    ServerStoppedError,
    UnknownJobError,
)
from repro.serve import server as server_module
from repro.specs import algorithm_spec_from_text, workload_spec_from_text

SMALL = WorkloadSpec.synthetic(24, seed=5)
OTHER = WorkloadSpec.synthetic(24, seed=9)
GREEDY = algorithm_spec_from_text("greedy")


def request(workload=SMALL, **kwargs):
    kwargs.setdefault("fraction", 0.5)
    return JobRequest(workload=workload, algorithm=GREEDY, **kwargs)


@pytest.fixture(autouse=True)
def fresh_trace():
    telemetry.reset_trace()
    yield
    telemetry.reset_trace()


def _hold_first_call(monkeypatch, owner, name):
    """``(entered, release)`` events: the first call of ``owner.name``
    sets ``entered`` and blocks its thread until ``release`` is set."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(owner, name)

    def held(*args, **kwargs):
        if not release.is_set():
            entered.set()
            release.wait(60)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, held)
    return entered, release


@pytest.fixture
def held_pricing(monkeypatch):
    """Park the dispatcher in its first table resolve."""
    pricing, release = _hold_first_call(
        monkeypatch, PricedTableCache, "resolve"
    )
    yield pricing, release
    release.set()


@pytest.fixture
def held_dispatcher(monkeypatch):
    """Park the dispatcher inside its first job's run."""
    running, release = _hold_first_call(
        monkeypatch, server_module, "run_job"
    )
    yield running, release
    release.set()


class TestBatching:
    def test_jobs_sharing_a_pair_build_one_table(self):
        server = Server()
        job_ids = [server.submit(request()) for _ in range(8)]
        server.start()
        records = [server.await_result(j, timeout=60) for j in job_ids]
        server.shutdown()

        assert all(r.state == "done" for r in records)
        trace = telemetry.get_trace()
        assert trace.total_counter("cost_table_builds") == 1
        # One batch took every pre-queued job.
        assert server.stats()["jobs"]["batches"] == 1
        cycles = {r.result.final_cycles for r in records}
        assert len(cycles) == 1

    def test_result_matches_serial_partitioner(self):
        with Server() as server:
            record = server.await_result(
                server.submit(request()), timeout=60
            )
        workload, platform = SMALL.build(), PlatformSpec().build()
        partitioner = make_partitioner(GREEDY, workload, platform)
        constraint = max(1, round(partitioner.initial_cycles() * 0.5))
        reference = partitioner.run(constraint)
        assert record.result.final_cycles == reference.final_cycles
        assert record.result.moved_bb_ids == reference.moved_bb_ids
        assert record.result.timing_constraint == reference.timing_constraint

    def test_distinct_pairs_build_distinct_tables(self):
        with Server() as server:
            ids = [
                server.submit(request(workload))
                for workload in (SMALL, OTHER, SMALL)
            ]
            for job_id in ids:
                server.await_result(job_id, timeout=60)
        assert telemetry.get_trace().total_counter("cost_table_builds") == 2

    def test_lru_eviction_reprices_cold_pairs(self):
        # Capacity 1: alternating pairs evict each other, so each
        # alternation rebuilds; the same pair twice in a row does not.
        with Server(ServerConfig(cache_capacity=1)) as server:
            for workload in (SMALL, SMALL, OTHER, SMALL):
                server.await_result(
                    server.submit(request(workload)), timeout=60
                )
        trace = telemetry.get_trace()
        # SMALL built, SMALL hit, OTHER evicts SMALL, SMALL rebuilt.
        assert trace.total_counter("cost_table_builds") == 3
        assert trace.total_counter("serve_table_cache_hits") == 1

    def test_jobs_queued_while_a_job_runs_form_one_next_batch(
        self, held_dispatcher
    ):
        running, release = held_dispatcher
        with Server() as server:
            first = server.submit(request())
            assert running.wait(60)
            assert server.record(first).state == "running"
            queued = [server.submit(request()) for _ in range(5)]
            assert server.stats()["queued"] == 5
            release.set()
            records = [server.await_result(j, timeout=60) for j in queued]
            assert server.await_result(first, timeout=60).state == "done"
        assert all(r.state == "done" for r in records)
        # The running job's batch, then the five as one batch and one
        # group (they started together).
        assert server.stats()["jobs"]["batches"] == 2
        assert len({r.started_at for r in records}) == 1

    def test_jobs_queued_on_a_pair_while_it_is_priced_join_its_group(
        self, held_pricing
    ):
        # Same-pair jobs submitted while the first job's table is priced
        # join that group (one fan-out); a job on another pair waits for
        # the next batch.
        pricing, release = held_pricing
        with Server() as server:
            first = server.submit(request())
            assert pricing.wait(60)
            late = [server.submit(request()) for _ in range(3)]
            other = server.submit(request(OTHER))
            release.set()
            records = [
                server.await_result(j, timeout=60) for j in (first, *late)
            ]
            other_record = server.await_result(other, timeout=60)
        assert all(r.state == "done" for r in [*records, other_record])
        assert len({r.started_at for r in records}) == 1
        assert other_record.started_at > records[0].started_at
        assert server.stats()["jobs"]["batches"] == 2

    def test_idle_dispatcher_starts_a_lone_job_without_pausing(
        self, monkeypatch
    ):
        # Record every sleep the dispatcher thread takes instead of
        # timing it: from wake-up to result it must take none.
        sleeps = []
        real_sleep = time.sleep

        def spy(seconds):
            if threading.current_thread().name == "repro-serve-dispatch":
                sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", spy)
        with Server() as server:
            record = server.await_result(
                server.submit(request()), timeout=60
            )
        assert record.state == "done"
        assert sleeps == []
        assert server.stats()["jobs"]["batches"] == 1

    def test_worker_pool_results_match_dispatcher_thread(self):
        def run(workers):
            telemetry.reset_trace()
            with Server(ServerConfig(workers=workers)) as server:
                ids = [server.submit(request()) for _ in range(4)]
                return [
                    server.await_result(j, timeout=120).result
                    for j in ids
                ]

        serial = run(workers=1)
        pooled = run(workers=2)
        assert [r.final_cycles for r in serial] == [
            r.final_cycles for r in pooled
        ]
        assert [r.moved_bb_ids for r in serial] == [
            r.moved_bb_ids for r in pooled
        ]


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        server = Server(ServerConfig(queue_capacity=2))
        server.submit(request())
        server.submit(request())
        with pytest.raises(QueueFullError) as excinfo:
            server.submit(request())
        error = excinfo.value
        assert error.retry_after_seconds > 0
        payload = error.to_payload()
        assert payload["code"] == "queue-full"
        assert payload["retry_after_seconds"] > 0
        stats = server.stats()
        assert stats["jobs"]["rejected"] == 1
        assert stats["jobs"]["submitted"] == 2
        server.shutdown()

    def test_rejected_jobs_have_no_record(self):
        server = Server(ServerConfig(queue_capacity=1))
        job_id = server.submit(request())
        with pytest.raises(QueueFullError):
            server.submit(request())
        with pytest.raises(UnknownJobError):
            server.record(job_id + 1)
        server.shutdown()


class TestTimeouts:
    def test_expired_job_gets_structured_timeout_error(self):
        server = Server()
        job_id = server.submit(request(timeout_seconds=0.01))
        time.sleep(0.05)  # expire while still queued, pre-dispatch
        server.start()
        record = server.await_result(job_id, timeout=30)
        server.shutdown()
        assert record.state == "timeout"
        assert record.error["code"] == "timeout"
        assert record.error["timeout_seconds"] == pytest.approx(0.01)
        assert record.result is None
        assert server.stats()["jobs"]["timeouts"] == 1

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_config_default_timeout_must_be_finite(self, seconds):
        with pytest.raises(ValueError, match="default_timeout_seconds"):
            ServerConfig(default_timeout_seconds=seconds)

    def test_config_default_timeout_applies(self):
        server = Server(ServerConfig(default_timeout_seconds=0.01))
        job_id = server.submit(request())  # no per-job timeout
        time.sleep(0.05)
        server.start()
        record = server.await_result(job_id, timeout=30)
        server.shutdown()
        assert record.state == "timeout"

    def test_job_joining_a_group_past_its_timeout_expires(
        self, held_pricing
    ):
        pricing, release = held_pricing
        with Server() as server:
            first = server.submit(request())
            assert pricing.wait(60)
            late = server.submit(request(timeout_seconds=0.01))
            time.sleep(0.05)  # expire while queued behind the pricing
            release.set()
            assert server.await_result(first, timeout=60).state == "done"
            record = server.await_result(late, timeout=60)
        assert record.state == "timeout"
        assert record.error["code"] == "timeout"

    def test_await_timeout_is_a_wait_timeout_not_a_job_state(self):
        server = Server()
        job_id = server.submit(request())
        with pytest.raises(TimeoutError):
            server.await_result(job_id, timeout=0.01)  # never started
        server.start()
        record = server.await_result(job_id, timeout=60)
        server.shutdown()
        assert record.state == "done"


class TestLifecycle:
    def test_cancel_queued_job(self):
        server = Server()
        job_id = server.submit(request())
        assert server.cancel(job_id) is True
        record = server.record(job_id)
        assert record.state == "cancelled"
        assert record.done_event.is_set()
        # Already out of the queue: a second cancel is a no-op.
        assert server.cancel(job_id) is False
        server.shutdown()

    def test_submit_after_shutdown_raises(self):
        server = Server()
        server.shutdown()
        with pytest.raises(ServerStoppedError):
            server.submit(request())

    def test_shutdown_drains_queued_jobs(self):
        server = Server()
        ids = [server.submit(request()) for _ in range(3)]
        server.start()
        server.shutdown(drain=True)
        records = [server.record(j) for j in ids]
        assert all(r.state == "done" for r in records)

    def test_shutdown_without_drain_cancels_queue(self):
        server = Server()
        ids = [server.submit(request()) for _ in range(3)]
        server.shutdown(drain=False)  # dispatcher never started
        assert all(
            server.record(j).state == "cancelled" for j in ids
        )

    def test_shutdown_without_drain_cancels_jobs_a_group_would_take(
        self, held_pricing
    ):
        pricing, release = held_pricing
        server = Server().start()
        first = server.submit(request())
        assert pricing.wait(60)
        late = [server.submit(request()) for _ in range(2)]
        stopper = threading.Thread(
            target=server.shutdown, kwargs={"drain": False}
        )
        stopper.start()
        deadline = time.monotonic() + 30
        while server.stats()["state"] != "stopped":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        stopper.join(60)
        assert not stopper.is_alive()
        # The running group finishes its own job; the ones it would have
        # taken are cancelled with the rest of the queue.
        assert server.record(first).state == "done"
        assert [server.record(j).state for j in late] == [
            "cancelled", "cancelled",
        ]

    def test_concurrent_submitters_all_complete(self):
        with Server() as server:
            ids: list[int] = []
            lock = threading.Lock()

            def push():
                for _ in range(5):
                    job_id = server.submit(request())
                    with lock:
                        ids.append(job_id)

            threads = [threading.Thread(target=push) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            records = [
                server.await_result(j, timeout=120) for j in ids
            ]
        assert len(records) == 20
        assert all(r.state == "done" for r in records)
        assert telemetry.get_trace().total_counter("cost_table_builds") == 1


class TestRetention:
    def test_earliest_finished_records_expire_first(self, monkeypatch):
        monkeypatch.setattr(server_module, "RETAINED_FINISHED_JOBS", 2)
        server = Server()
        ids = [server.submit(request()) for _ in range(4)]
        for job_id in ids[:3]:  # cancelled jobs are finished jobs
            assert server.cancel(job_id)
        with pytest.raises(ExpiredJobError) as excinfo:
            server.poll(ids[0])
        assert excinfo.value.to_payload()["code"] == "expired"
        assert server.poll(ids[1])["state"] == "cancelled"
        # However many finish, the queued job keeps its record.
        assert server.record(ids[3]).state == "queued"
        server.start()
        assert server.await_result(ids[3], timeout=60).state == "done"
        server.shutdown()
        with pytest.raises(ExpiredJobError):
            server.record(ids[1])
        assert [server.record(j).state for j in ids[2:]] == [
            "cancelled", "done",
        ]
        assert server.stats()["jobs"]["submitted"] == 4
        # An id never issued stays unknown, not expired.
        with pytest.raises(UnknownJobError) as excinfo:
            server.poll(ids[-1] + 1)
        assert excinfo.value.to_payload()["code"] == "unknown-job"

    def test_running_and_queued_jobs_are_never_dropped(
        self, monkeypatch, held_dispatcher
    ):
        monkeypatch.setattr(server_module, "RETAINED_FINISHED_JOBS", 1)
        running, release = held_dispatcher
        with Server() as server:
            busy = server.submit(request())
            assert running.wait(60)
            waiting = server.submit(request())
            extra = [server.submit(request()) for _ in range(3)]
            for job_id in extra:
                assert server.cancel(job_id)
            assert server.record(busy).state == "running"
            assert server.record(waiting).state == "queued"
            with pytest.raises(ExpiredJobError):
                server.record(extra[1])
            release.set()
            assert server.await_result(waiting, timeout=60).state == "done"
        with pytest.raises(ExpiredJobError):
            server.record(busy)


class TestPayloads:
    def test_submit_payload_round_trip(self):
        with Server() as server:
            job_id = server.submit_payload(
                {"workload": "synthetic:24:seed=5", "fraction": 0.5}
            )
            record = server.await_result(job_id, timeout=60)
            payload = server.poll(job_id)
        assert record.state == "done"
        assert payload["state"] == "done"
        assert payload["result"]["final_cycles"] == (
            record.result.final_cycles
        )
        assert payload["latency_seconds"] >= 0

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([], "JSON object"),
            ({}, "'workload'"),
            ({"workload": 7}, "'workload'"),
            ({"workload": "nonsense"}, "unknown workload"),
            ({"workload": "synthetic:24"}, "constraint"),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "constraint": 10},
                "exactly one",
            ),
            ({"workload": "synthetic:24", "fraction": -0.5}, "fraction"),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "algorithm": "quantum"},
                "unknown algorithm",
            ),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "flavor": "spicy"},
                "unknown job field",
            ),
            (
                {"workload": "synthetic:24", "fraction": 0.5,
                 "timeout_seconds": -1},
                "timeout_seconds",
            ),
        ],
    )
    def test_invalid_payloads_are_structured_errors(
        self, payload, fragment
    ):
        server = Server()
        with pytest.raises(JobValidationError) as excinfo:
            server.submit_payload(payload)
        assert fragment in str(excinfo.value)
        assert excinfo.value.to_payload()["code"] == "invalid-request"
        server.shutdown()

    def test_overflowing_fraction_fails_only_its_own_job(self):
        """1e308 × the all-FPGA cycles is no cycle count: the job fails
        inside its own error boundary, and the next job still runs."""
        ofdm = WorkloadSpec.ofdm()
        with Server() as server:
            bad = server.await_result(
                server.submit(request(ofdm, fraction=1e308)), timeout=60
            )
            good = server.await_result(
                server.submit(request(ofdm)), timeout=60
            )
        assert bad.state == "failed"
        assert bad.error["code"] == "failed"
        assert "not finite" in bad.error["message"]
        assert good.state == "done"

    def test_unknown_job_is_structured(self):
        server = Server()
        with pytest.raises(UnknownJobError) as excinfo:
            server.poll(41)
        assert excinfo.value.to_payload()["code"] == "unknown-job"
        server.shutdown()


class TestDecodeOnce:
    """A request parses its spec texts through bounded memos and builds
    its job once; what it rejects is rejected on every call."""

    @pytest.mark.parametrize(
        "parse", [workload_spec_from_text, algorithm_spec_from_text]
    )
    def test_spec_memos_are_bounded(self, parse):
        assert 0 < parse.cache_info().maxsize < float("inf")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (workload_spec_from_text, "synthetic:abc"),
            (workload_spec_from_text, "filterbank:bogus=1"),
            (algorithm_spec_from_text, "exhaustive:max_candidates=0"),
            (algorithm_spec_from_text, "quantum"),
        ],
    )
    def test_a_malformed_spec_raises_on_every_call(self, parse, text):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse(text)

    def test_a_spec_text_is_parsed_once(self):
        payload = {"workload": "synthetic:24:seed=5", "fraction": 0.5}
        first = JobRequest.from_payload(payload)
        second = JobRequest.from_payload(payload)
        assert first.workload is second.workload
        assert first.algorithm is second.algorithm

    def test_the_job_is_built_once_and_equals_one_built_by_hand(self):
        built = request(fraction=0.25, platform=PlatformSpec(afpga=900))
        assert built.job is built.job
        assert built.job == Job(
            SMALL, PlatformSpec(afpga=900), GREEDY,
            constraint_fractions=(0.25,),
        )
        by_constraint = request(fraction=None, constraint=1234)
        assert by_constraint.job == Job(
            SMALL, PlatformSpec(), GREEDY, constraints=(1234,)
        )

    @pytest.mark.parametrize(
        "targets",
        [
            {"fraction": float("nan")},
            {"fraction": 0.0},
            {"fraction": None, "constraint": 0},
            {"fraction": 0.5, "constraint": 10},
        ],
    )
    def test_a_bad_target_is_still_a_validation_error(self, targets):
        with pytest.raises(JobValidationError):
            request(**targets)
