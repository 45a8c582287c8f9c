"""The HTTP shell: JSON endpoints, status codes, signal-driven drain.

Every test binds an ephemeral port (``port=0``) so suites can run in
parallel; the SIGTERM test raises the real signal against installed
handlers and restores the previous handlers afterwards.
"""

import http.client
import json
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.serve import ServeDaemon, ServerConfig, ServerStoppedError
from repro.serve import server as server_module


@pytest.fixture
def daemon():
    with ServeDaemon(ServerConfig(), port=0) as instance:
        yield instance


def url(daemon, path):
    host, port = daemon.address
    return f"http://{host}:{port}{path}"


def get(daemon, path):
    try:
        with urllib.request.urlopen(
            url(daemon, path), timeout=30
        ) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(daemon, path, payload):
    body = (
        payload if isinstance(payload, bytes)
        else json.dumps(payload).encode()
    )
    request = urllib.request.Request(
        url(daemon, path),
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read()), reply.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def post_with_length(daemon, length, body=b""):
    """POST /jobs with a hand-set Content-Length header and ``body``."""
    host, port = daemon.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders(body or None)
        reply = connection.getresponse()
        return (
            reply.status, json.loads(reply.read()),
            reply.getheader("Connection"),
        )
    finally:
        connection.close()


def get_raw(daemon, path):
    """GET ``path`` given as bytes, sent as they are (urllib and
    http.client encode a path as ASCII)."""
    with socket.create_connection(daemon.address, timeout=10) as sock:
        sock.sendall(b"GET " + path + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        return reply.status, json.loads(reply.read())


JOB = {"workload": "synthetic:24:seed=5", "fraction": 0.5}
#: A valid 37-byte job body.
BODY_37 = b'{"workload": "ofdm", "fraction": 0.5}'


class TestEndpoints:
    def test_submit_poll_stats_round_trip(self, daemon):
        status, payload, _ = post(daemon, "/jobs", JOB)
        assert status == 202
        job_id = payload["job_id"]

        deadline = time.monotonic() + 60
        while True:
            status, snapshot = get(daemon, f"/jobs/{job_id}")
            assert status == 200
            if snapshot["state"] == "done":
                break
            assert time.monotonic() < deadline, snapshot
            time.sleep(0.01)
        assert snapshot["result"]["final_cycles"] > 0

        status, stats = get(daemon, "/stats")
        assert status == 200
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["completed"] == 1

        status, health = get(daemon, "/healthz")
        assert status == 200 and health == {"ok": True}

    def test_malformed_json_is_400(self, daemon):
        status, payload, _ = post(daemon, "/jobs", b"{not json")
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert "malformed JSON" in payload["error"]["message"]

    @pytest.mark.parametrize(
        "length, body",
        [("abc", b""), ("-1", b""), ("3_7", BODY_37), ("+37", BODY_37)],
        ids=["abc", "-1", "3_7", "+37"],
    )
    def test_bad_content_length_is_400_and_closes(self, daemon, length, body):
        # Non-integer: used to crash the handler with no response;
        # negative: used to block in rfile.read(-1) until the client
        # hung up.  HTTP allows only ASCII digits, though int() also
        # takes a sign or underscores: those bodies used to be read
        # and the job accepted.
        assert len(BODY_37) == 37
        status, payload, connection = post_with_length(daemon, length, body)
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert "Content-Length" in payload["error"]["message"]
        assert connection == "close"

    def test_invalid_job_is_400(self, daemon):
        status, payload, _ = post(
            daemon, "/jobs", {"workload": "nonsense", "fraction": 0.5}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf")])
    def test_non_finite_fraction_is_400_and_the_daemon_keeps_serving(
        self, daemon, fraction
    ):
        # json.dumps writes the NaN / Infinity literals json.loads reads.
        status, payload, _ = post(
            daemon, "/jobs", {**JOB, "fraction": fraction}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert "fraction" in payload["error"]["message"]
        status, payload, _ = post(daemon, "/jobs", JOB)
        assert status == 202
        record = daemon.server.await_result(payload["job_id"], timeout=60)
        assert record.state == "done"

    @pytest.mark.parametrize(
        "platform, field",
        [
            ({"rows": 0}, "rows"),
            ({"cols": 0}, "cols"),
            ({"reconfig_cycles": -1}, "reconfig_cycles"),
        ],
    )
    def test_out_of_range_platform_field_is_400(
        self, daemon, platform, field
    ):
        status, payload, _ = post(
            daemon, "/jobs", {**JOB, "platform": platform}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert field in payload["error"]["message"]
        status, stats = get(daemon, "/stats")
        assert stats["jobs"]["submitted"] == 0

    @pytest.mark.parametrize(
        "algorithm",
        [
            "exhaustive:max_candidates=0",
            "exhaustive:max_candidates=1.5",
            "exhaustive:shards=0",
            "annealing:seed=1.5",
            "annealing:seed=abc",
            # Removed spellings: multi-start and the annealing schedule.
            "annealing:cooling=2",
            "annealing:cooling=0.8",
            "annealing:temp_levels=5",
            "multi_start:restarts=0",
            "multi_start",
        ],
    )
    def test_out_of_range_algorithm_parameter_is_400(
        self, daemon, algorithm
    ):
        status, payload, _ = post(
            daemon, "/jobs", {**JOB, "algorithm": algorithm}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert algorithm.split(":")[0] in payload["error"]["message"]
        status, stats = get(daemon, "/stats")
        assert stats["jobs"]["submitted"] == 0

    def test_removed_exact_search_parameters(self, daemon):
        """``shards`` left with the sharded walk (a 400); ``prune`` is
        accepted and ignored, so its job answers as plain exhaustive."""
        status, payload, _ = post(
            daemon, "/jobs", {**JOB, "algorithm": "exhaustive:shards=2"}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert "shards" in payload["error"]["message"]
        results = []
        for algorithm in ("exhaustive:prune=true", "exhaustive"):
            status, payload, _ = post(
                daemon, "/jobs", {**JOB, "algorithm": algorithm}
            )
            assert status == 202
            record = daemon.server.await_result(payload["job_id"], timeout=60)
            results.append(record.to_payload()["result"])
        assert results[0] == results[1]

    def test_empty_body_is_400(self, daemon):
        status, payload, _ = post(daemon, "/jobs", b"")
        assert status == 400
        assert "empty request body" in payload["error"]["message"]

    def test_unknown_job_is_404(self, daemon):
        status, payload = get(daemon, "/jobs/999")
        assert status == 404
        assert payload["error"]["code"] == "unknown-job"

    def test_expired_job_is_404(self, daemon, monkeypatch):
        monkeypatch.setattr(server_module, "RETAINED_FINISHED_JOBS", 1)
        ids = []
        for _ in range(2):
            ids.append(post(daemon, "/jobs", JOB)[1]["job_id"])
            daemon.server.await_result(ids[-1], timeout=60)
        status, payload = get(daemon, f"/jobs/{ids[0]}")
        assert status == 404
        assert payload["error"]["code"] == "expired"
        status, payload = get(daemon, f"/jobs/{ids[1]}")
        assert status == 200 and payload["state"] == "done"

    def test_non_integer_job_id_is_400(self, daemon):
        status, payload = get(daemon, "/jobs/abc")
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"

    def test_non_ascii_digit_job_id_is_400(self, daemon):
        # "²" (Latin-1 0xB2) passes str.isdigit() but not int(): the
        # handler used to raise and close the connection unanswered.
        status, payload = get_raw(daemon, b"/jobs/\xb2")
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"

    def test_a_reply_is_one_socket_write(self, daemon, monkeypatch):
        # Headers and body leave together: written separately, a GIL
        # switch between them held the body while the dispatcher ran.
        port = daemon.address[1]
        writes = []
        for name in ("send", "sendall"):
            original = getattr(socket.socket, name)

            def counted(sock, data, *args, _original=original):
                if sock.getsockname()[1] == port:
                    writes.append(bytes(data))
                return _original(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counted)
        for path in ("/healthz", "/stats", "/jobs/abc"):
            writes.clear()
            get(daemon, path)
            assert len(writes) == 1, (path, writes)
            assert writes[0].startswith(b"HTTP/1.1 ")

    def test_unknown_route_is_404(self, daemon):
        status, payload = get(daemon, "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not-found"

    def test_keep_alive_requests_do_not_stall(self, daemon):
        # With Nagle's algorithm on and a reply in two writes (headers,
        # body), each request sent right after a reply waited ~40 ms for
        # the client's delayed ACK: ten took ~400 ms.
        host, port = daemon.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/healthz")
                reply = connection.getresponse()
                assert reply.status == 200
                assert json.loads(reply.read()) == {"ok": True}
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert elapsed < 0.2, f"ten keep-alive requests took {elapsed:.3f} s"


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self):
        # A slow fault holds the dispatcher inside a first job while we
        # overfill the 1-slot queue behind it, making the 429
        # deterministic.
        plan = FaultPlan.of(
            FaultSpec(task_index=0, attempt=0, kind="slow", seconds=1.0)
        )
        with ServeDaemon(
            ServerConfig(queue_capacity=1, fault_plan=plan), port=0,
        ) as daemon:
            holder = post(daemon, "/jobs", JOB)[1]["job_id"]
            deadline = time.monotonic() + 30
            while daemon.server.record(holder).state != "running":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            first, *_ = post(daemon, "/jobs", JOB)
            assert first == 202
            status, payload, headers = post(daemon, "/jobs", JOB)
            assert status == 429
            assert payload["error"]["code"] == "queue-full"
            assert float(headers["Retry-After"]) > 0
            assert payload["error"]["retry_after_seconds"] > 0


class TestShutdown:
    def test_shutdown_endpoint_drains(self):
        daemon = ServeDaemon(ServerConfig(), port=0).start()
        _, submitted, _ = post(daemon, "/jobs", JOB)
        status, payload, _ = post(daemon, "/shutdown", {})
        assert status == 202 and payload == {"draining": True}
        assert daemon.wait(timeout=60)
        record = daemon.server.record(submitted["job_id"])
        assert record.state == "done"
        with pytest.raises(ServerStoppedError):
            daemon.server.submit_payload(JOB)

    def test_sigterm_drains_queued_jobs(self):
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        daemon = ServeDaemon(ServerConfig(), port=0)
        try:
            daemon.install_signal_handlers()
            daemon.start()
            job_ids = [
                post(daemon, "/jobs", JOB)[1]["job_id"] for _ in range(3)
            ]
            waiter = threading.Thread(
                target=daemon.wait, kwargs={"timeout": 60}
            )
            waiter.start()
            signal.raise_signal(signal.SIGTERM)
            waiter.join(timeout=60)
            assert not waiter.is_alive()
            # Drained, not cancelled: every accepted job finished.
            for job_id in job_ids:
                assert daemon.server.record(job_id).state == "done"
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)
            daemon.close()
