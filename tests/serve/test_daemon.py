"""The HTTP shell: JSON endpoints, status codes, signal-driven drain.

Every test binds an ephemeral port (``port=0``) so suites can run in
parallel; the SIGTERM test raises the real signal against installed
handlers and restores the previous handlers afterwards.
"""

import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.serve import ServeDaemon, ServerConfig, ServerStoppedError
from repro.serve import daemon as daemon_module
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


def read_reply(stream):
    """One reply from ``stream`` as (status, headers by lower-cased name,
    body), or None at EOF."""
    status_line = stream.readline()
    if not status_line:
        return None
    version, status, _ = status_line.split(b" ", 2)
    assert version == b"HTTP/1.1", status_line
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", 0)))
    return int(status), headers, body


def exchange(daemon, raw, half_close=False):
    """Send ``raw`` on a new connection (then end the sending side if
    ``half_close``); every reply until EOF."""
    with socket.create_connection(daemon.address, timeout=5) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        stream = sock.makefile("rb")
        replies = []
        while (reply := read_reply(stream)) is not None:
            replies.append(reply)
        return replies


def assert_json_error(reply, status, code):
    """``reply`` is a JSON error of ``status`` and ``code`` that closes
    its connection."""
    got, headers, body = reply
    assert got == status, body
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    error = json.loads(body)["error"]
    assert error["code"] == code
    assert error["message"]


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fraction", float("nan")),
            ("fraction", float("inf")),
            # A 401-digit integer overflows float(): it used to kill
            # the request with no reply.
            ("fraction", 10**400),
            ("timeout_seconds", 10**400),
            # A NaN timeout used to be accepted and never expire.
            ("timeout_seconds", float("nan")),
        ],
        ids=["fraction-nan", "fraction-inf", "fraction-huge",
             "timeout-huge", "timeout-nan"],
    )
    def test_non_finite_number_is_400_and_the_daemon_keeps_serving(
        self, daemon, field, value
    ):
        # json.dumps writes the NaN / Infinity literals json.loads reads.
        status, payload, _ = post(daemon, "/jobs", {**JOB, field: value})
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert field in payload["error"]["message"]
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


class TestFraming:
    """A request the head parser refuses gets exactly one JSON error with
    ``Connection: close``, then EOF: nothing of it is read as a job or as
    the next request."""

    @pytest.mark.parametrize(
        "head, body",
        [
            # The chunk-size line used to be read as a second request,
            # which got a bare HTML 400 after the JSON one.
            (b"Transfer-Encoding: chunked\r\n",
             b"25\r\n" + BODY_37 + b"\r\n0\r\n\r\n"),
            # Both used to get a 202, the first from the first length.
            (b"Content-Length: 37\r\nContent-Length: 5\r\n", BODY_37),
            (b"Content-Length: 37\r\nTransfer-Encoding: chunked\r\n",
             BODY_37),
            # Both used to get "empty request body" and leave the body
            # unread on an open connection, so the next read hung.
            (b"Host x\r\nContent-Length: 37\r\n", BODY_37),
            (b"Content-Length : 37\r\n", BODY_37),
        ],
        ids=["chunked", "two-lengths", "length-and-chunked", "no-colon",
             "space-before-colon"],
    )
    def test_a_body_that_cannot_be_framed_is_one_400(self, daemon, head, body):
        replies = exchange(
            daemon, b"POST /jobs HTTP/1.1\r\nHost: x\r\n" + head
            + b"\r\n" + body,
        )
        assert len(replies) == 1, replies
        assert_json_error(replies[0], 400, "invalid-request")
        assert daemon.server.stats()["jobs"]["submitted"] == 0

    @pytest.mark.parametrize(
        "raw, status, code",
        [
            (b"PUT /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 37\r\n"
             b"\r\n" + BODY_37, 501, "not-implemented"),
            (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
             414, "uri-too-long"),
            (b"GET /healthz HTTP/1.1\r\n"
             + b"".join(b"X-Field-%d: %d\r\n" % (i, i) for i in range(101))
             + b"\r\n", 431, "header-too-large"),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"v" * 65536 + b"\r\n\r\n",
             431, "header-too-large"),
            (b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n",
             505, "version-not-supported"),
            (b"GET /healthz\r\n", 400, "invalid-request"),
            (b"GET /healthz HTTP/1.2\r\n\r\n", 400, "invalid-request"),
            (b"GET  /healthz HTTP/1.1\r\n\r\n", 400, "invalid-request"),
            (b"GET /healthz HTTP/1.1\r\n folded: x\r\n\r\n", 400,
             "invalid-request"),
        ],
        ids=["PUT", "long-request-line", "101-fields", "long-field",
             "HTTP/2.0", "HTTP/0.9", "HTTP/1.2", "two-spaces", "folded"],
    )
    def test_every_refused_head_is_one_json_error(
        self, daemon, raw, status, code
    ):
        replies = exchange(daemon, raw)
        assert len(replies) == 1, replies
        assert_json_error(replies[0], status, code)

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /jobs HTTP/1.1\r\n",
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nHost: y\r\n",
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nhOST: x\r\n",
            b"POST /jobs HTTP/1.0\r\nHost: x\r\nHost: y\r\n",
        ],
        ids=["no-host", "two-hosts", "two-hosts-any-case",
             "http-1.0-two-hosts"],
    )
    def test_a_request_needs_exactly_one_host(self, daemon, head):
        # RFC 9112 §3.2: an HTTP/1.1 request without a Host field and
        # any request with two are a 400 (both used to get a 202).
        # HTTP/1.0 needs none: test_http_1_0_closes_after_its_reply.
        replies = exchange(
            daemon, head + b"Content-Length: 37\r\n\r\n" + BODY_37
        )
        assert len(replies) == 1, replies
        assert_json_error(replies[0], 400, "invalid-request")
        assert "Host" in json.loads(replies[0][2])["error"]["message"]
        assert daemon.server.stats()["jobs"]["submitted"] == 0

    def test_a_head_cut_by_eof_is_one_400(self, daemon):
        replies = exchange(
            daemon, b"GET /healthz HTTP/1.1\r\nHost: x", half_close=True
        )
        assert len(replies) == 1, replies
        assert_json_error(replies[0], 400, "invalid-request")

    def test_100_fields_are_served(self, daemon):
        head = b"".join(b"X-Field-%d: %d\r\n" % (i, i) for i in range(98))
        [(status, _, body)] = exchange(
            daemon, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + head
            + b"Connection: close\r\n\r\n",
        )
        assert status == 200 and json.loads(body) == {"ok": True}

    def test_http_1_0_closes_after_its_reply(self, daemon):
        [(status, _, _)] = exchange(daemon, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200

    def test_a_100_continue_is_sent_before_the_body(self, daemon):
        with socket.create_connection(daemon.address, timeout=5) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\nContent-Length: 37\r\n\r\n"
            )
            stream = sock.makefile("rb")
            assert read_reply(stream)[0] == 100
            sock.sendall(BODY_37 + b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n\r\n")
            assert read_reply(stream)[0] == 202
            assert read_reply(stream)[0] == 200
            assert read_reply(stream) is None

    def test_header_fields_are_found_whatever_their_case(self):
        headers = daemon_module._Headers({"content-type": "text/plain"})
        assert headers["Content-Type"] == headers.get("CONTENT-TYPE")
        assert "content-TYPE" in headers and "accept" not in headers
        assert dict(headers) == {"content-type": "text/plain"}

    def test_a_body_no_route_reads_closes_the_connection(self, daemon):
        replies = exchange(
            daemon, b"POST /nope HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 37\r\n\r\n"
            + BODY_37 + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert [status for status, _, _ in replies] == [404]
        assert replies[0][1]["connection"] == "close"


#: Header names a block may draw (their case is drawn too); none of them
#: changes how the request is framed or kept alive.  Every block carries
#: one Host field besides.
FIELD_NAMES = ("Accept", "User-Agent", "X-Trace-Id", "Cache-Control")
TOKEN = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def any_case(name):
    """``name`` with the case of each letter drawn."""
    flips = st.lists(st.booleans(), min_size=len(name), max_size=len(name))
    return flips.map(lambda flips: "".join(
        c.swapcase() if flip else c for c, flip in zip(name, flips)
    ))


@st.composite
def field_name(draw):
    name = draw(st.sampled_from(FIELD_NAMES) | st.text(TOKEN, min_size=1,
                                                       max_size=12))
    if name.lower() in ("content-length", "transfer-encoding", "connection",
                        "expect", "host"):
        name = "X-" + name
    return draw(any_case(name))


#: Field values: visible latin-1 text with inner spaces and tabs.
FIELD_VALUE = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                  blacklist_categories=("Cc",)) | st.just("\t"),
    max_size=30,
)
#: Lines the parser must refuse, each on its own.
JUNK_LINES = st.sampled_from([
    "no colon here", "Name : space before the colon", " folded: value",
    "\tfolded: value", ": no name", "Bad Name: value", "Na(me: value",
    "Content-Length: 5", "Transfer-Encoding: chunked", "Value: bell\x07",
    "Value: nul\x00", "Value: lone\rcr", "Host: a second host",
])


@st.composite
def header_block(draw):
    """(lines, valid): valid fields, one Host among them, with junk lines
    mixed in or not."""
    lines = draw(st.lists(
        st.builds("{}:{}".format, field_name(), FIELD_VALUE), max_size=8
    ))
    host = draw(st.builds("{}:{}".format, any_case("Host"), FIELD_VALUE))
    lines.insert(draw(st.integers(0, len(lines))), host)
    junk = draw(st.lists(JUNK_LINES, max_size=2))
    for line in junk:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines, not junk


class TestHeadParserProperty:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(block=header_block())
    def test_a_header_block_is_served_or_refused_once(self, daemon, block):
        lines, valid = block
        errors = []
        daemon._http.handle_error = lambda request, address: errors.append(
            address
        )
        body = json.dumps(JOB).encode()
        head = "".join(line + "\r\n" for line in lines).encode("latin-1")
        with socket.create_connection(daemon.address, timeout=5) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n" + head
                + b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            stream = sock.makefile("rb")
            reply = read_reply(stream)
            if valid:
                assert reply[0] == 202, (lines, reply)
                assert "connection" not in reply[1]
                # Still open: the next request is served on it.
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                assert read_reply(stream)[0] == 200
            else:
                assert_json_error(reply, 400, "invalid-request")
            assert read_reply(stream) is None
        assert errors == []


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
    def test_an_idle_daemon_closes_at_once(self):
        # close() used to wait out the HTTP loop's 0.5 s poll interval.
        daemon = ServeDaemon(ServerConfig(), port=0).start()
        started = time.perf_counter()
        daemon.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 0.2, f"an idle daemon took {elapsed:.3f} s to close"
        with pytest.raises(OSError):
            socket.create_connection(daemon.address, timeout=1).close()

    def test_a_daemon_never_started_closes(self):
        # shutdown() of an HTTP loop that never ran used to block forever.
        closer = threading.Thread(
            target=ServeDaemon(ServerConfig(), port=0).close, daemon=True
        )
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()

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


def test_the_stage_timeline_script_runs():
    """``scripts/serve_timeline.py`` (an informational CI step) still
    finds every stage it wraps."""
    script = Path(__file__).resolve().parents[2] / "scripts" / "serve_timeline.py"
    done = subprocess.run(
        [sys.executable, str(script), "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for stage in ("parse_request", "from_payload", "submit", "_reply",
                  "_run_batch", "run_job"):
        assert f"| `{stage}` |" in done.stdout
