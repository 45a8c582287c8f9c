"""The socket shell: ``python -m repro serve`` as a JSON-over-HTTP daemon.

Stdlib-only (:class:`http.server.ThreadingHTTPServer`); every endpoint
is a thin translation onto the in-process :class:`~repro.serve.server.
Server`, so anything the daemon can do a test can do without a port.

Endpoints::

    POST /jobs        submit one job (JSON body)  -> 202 {"job_id": N}
                      malformed/invalid           -> 400 {"error": ...}
                      queue full                  -> 429 + Retry-After
    GET  /jobs/<id>   poll one job                -> 200 payload
                      id never issued             -> 404 unknown-job
                      finished, record dropped    -> 404 expired
    GET  /stats       server counters and caches  -> 200
    GET  /healthz     liveness                    -> 200 {"ok": true}
    POST /shutdown    begin a graceful drain      -> 202

``SIGTERM``/``SIGINT`` trigger the same graceful drain the endpoint
does: intake stops, queued jobs finish, the HTTP loop exits.

The request head is parsed strictly: a request line
``METHOD SP target SP HTTP/1.0|HTTP/1.1``, then ``name: value`` lines
(token names, no space before the colon, no folded lines) up to a blank
line; lines of at most 65,536 bytes and at most 100 fields; at most one
``Content-Length``, no ``Transfer-Encoding`` and at most one ``Host``,
which HTTP/1.1 requires (RFC 9112 §3.2).  A request that breaks
a rule gets one JSON error (400, or 414, 431, 501, 505) with
``Connection: close``, as every daemon error carries
``{"error": {"code", "message"}}``.
"""

from __future__ import annotations

import json
import math
import re
import signal
import socket
import threading
from collections.abc import Iterator, Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .jobs import JobError, JobValidationError, QueueFullError
from .server import Server, ServerConfig, ServerStoppedError

__all__ = ["ServeDaemon", "run_daemon"]

#: Bodies over this size are rejected outright (jobs are tiny).
_MAX_BODY_BYTES = 1 << 20
#: Write buffer of a connection; a larger reply is written as it goes.
_REPLY_BUFFER_BYTES = 1 << 16
#: The longest request or header line and the most header fields a
#: request may carry (the stdlib's limits).
_MAX_LINE_BYTES = 65536
_MAX_FIELDS = 100

_TOKEN = rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+"
#: The target is any run of visible bytes (latin-1, as the stdlib reads
#: it); a version of 2 or more gets a 505, any other but 1.0/1.1 a 400.
_REQUEST_LINE = re.compile(
    rb"(" + _TOKEN + rb") ([^\x00-\x20\x7f]+) HTTP/(\d{1,9})\.(\d{1,9})\r?\n"
)
#: A field value holds no control byte but HTAB; its surrounding
#: whitespace is stripped after the match (a lazy match would backtrack).
_FIELD_LINE = re.compile(
    rb"(" + _TOKEN + rb"):([^\x00-\x08\x0a-\x1f\x7f]*)\r?\n"
)
#: The ``code`` of the errors :meth:`_Handler.send_error` sends.
_ERROR_CODES = {
    400: "invalid-request",
    414: "uri-too-long",
    431: "header-too-large",
    501: "not-implemented",
    505: "version-not-supported",
}


def _ascii_int(text: str) -> int | None:
    """``text`` as an integer if it is ASCII digits only (HTTP's
    ``1*DIGIT``), else None: ``int`` also takes signs, underscores and
    other scripts' digits ("²" passes ``str.isdigit`` and fails ``int``)."""
    return int(text) if text.isascii() and text.isdigit() else None


class _Headers(Mapping[str, str]):
    """A request's header fields, looked up whatever the name's case.
    A repeated field's values are joined with ``", "``."""

    __slots__ = ("_fields",)

    def __init__(self, fields: dict[str, str]) -> None:
        self._fields = fields  # by lower-cased name

    def __getitem__(self, name: str) -> str:
        return self._fields[name.lower()]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)


class _Handler(BaseHTTPRequestHandler):
    daemon: "ServeDaemon"  # injected by ServeDaemon via class attribute
    protocol_version = "HTTP/1.1"
    # Buffered, so a reply leaves in one write when handle_one_request
    # flushes: written unbuffered, headers and body are two segments, and
    # a GIL switch between the writes holds the body back while the
    # dispatcher runs a job.
    wbufsize = _REPLY_BUFFER_BYTES
    # With Nagle on, a keep-alive request sent right after a reply waits
    # for the client's delayed ACK.
    disable_nagle_algorithm = True

    #: Bytes of the request body not read yet; a reply while any are
    #: left closes the connection, which cannot carry another request.
    _unread_body = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        if self.daemon.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Read the request line and header fields by the module's rules.

        Returns False once a request that breaks one has its error reply.
        """
        self.command = ""
        self.request_version = ""  # so even a 400 carries its headers
        self.close_connection = True
        self._unread_body = 0
        line = self.raw_requestline
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        match = _REQUEST_LINE.fullmatch(line)
        if match is None:
            self.send_error(
                400, f"malformed request line {self.requestline[:80]!r}"
            )
            return False
        method, target, major, minor = match.groups()
        version = (int(major), int(minor))
        if version[0] >= 2:
            self.send_error(505, f"HTTP/{version[0]} is not supported")
            return False
        if version not in ((1, 0), (1, 1)):
            self.send_error(400, "the version must be HTTP/1.0 or HTTP/1.1")
            return False
        self.command = method.decode("ascii")
        self.path = target.decode("iso-8859-1")
        self.request_version = f"HTTP/1.{version[1]}"
        fields: dict[str, str] = {}
        for _ in range(_MAX_FIELDS + 1):
            line = self.rfile.readline(_MAX_LINE_BYTES + 1)
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > _MAX_LINE_BYTES:
                self.send_error(431, "header line too long")
                return False
            match = _FIELD_LINE.fullmatch(line)
            if match is None:
                self.send_error(
                    400,
                    f"malformed header line {str(line[:80], 'iso-8859-1')!r}",
                )
                return False
            name = match[1].decode("ascii").lower()
            value = match[2].strip(b" \t").decode("iso-8859-1")
            if name == "transfer-encoding":
                self.send_error(400, "Transfer-Encoding is not supported")
                return False
            if name in fields:
                if name in ("content-length", "host"):
                    self.send_error(400, f"more than one {name.title()}")
                    return False
                value = f"{fields[name]}, {value}"
            fields[name] = value
        else:
            self.send_error(431, f"more than {_MAX_FIELDS} header fields")
            return False
        if version == (1, 1) and "host" not in fields:
            self.send_error(400, "an HTTP/1.1 request needs a Host header")
            return False
        self.headers = _Headers(fields)  # type: ignore[assignment]
        length_text = fields.get("content-length", "0")
        length = _ascii_int(length_text)
        if length is None:
            self.send_error(
                400, f"invalid Content-Length header {length_text[:80]!r}"
            )
            return False
        if length > _MAX_BODY_BYTES:
            self.send_error(400, f"request body too large ({length} bytes)")
            return False
        self._unread_body = length
        # The stdlib's rules: HTTP/1.1 keeps the connection open unless
        # it says close, HTTP/1.0 closes unless it says keep-alive.
        connection = {
            token.strip().lower()
            for token in fields.get("connection", "").split(",")
        }
        self.close_connection = "close" in connection or (
            version == (1, 0) and "keep-alive" not in connection
        )
        if (
            version == (1, 1)
            and fields.get("expect", "").lower() == "100-continue"
        ):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        super().handle_expect_100()
        # The client sends the body only once the 100 arrives: it must
        # not wait in the reply buffer.
        self.wfile.flush()
        return True

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """The one reply to a request the head parser or the stdlib
        refused, as JSON; the connection closes, as the rest of its
        stream cannot be framed."""
        self._reply(
            code,
            {"error": {
                "code": _ERROR_CODES.get(code, "invalid-request"),
                "message": message or self.responses[code][0],
            }},
            close=True,
        )

    def _reply(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode()
        # The head that send_response and send_header would buffer line
        # by line, built as one string.
        head = (
            f"{self.protocol_version} {status:d} {self.responses[status][0]}"
            f"\r\nServer: {self.version_string()}"
            f"\r\nDate: {self.date_time_string()}"
            "\r\nContent-Type: application/json"
            f"\r\nContent-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if close or self._unread_body:
            head += "Connection: close\r\n"
            self.close_connection = True
        self.log_request(status, len(body))
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _read_json(self) -> object:
        length, self._unread_body = self._unread_body, 0
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise JobValidationError("empty request body; expected JSON")
        try:
            return json.loads(raw)
        except ValueError as error:
            raise JobValidationError(
                f"malformed JSON body: {error}"
            ) from None

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/jobs":
            try:
                payload = self._read_json()
                job_id = self.daemon.server.submit_payload(payload)
            except QueueFullError as error:
                self._reply(
                    429,
                    {"error": error.to_payload()},
                    headers={
                        "Retry-After": f"{error.retry_after_seconds:.3f}"
                    },
                )
                return
            except ServerStoppedError as error:
                # Shutting down: this instance will not take the job,
                # but another (post-restart) one will — 503 with a
                # Retry-After, not a 400 that blames the request.
                self._reply(
                    503,
                    {"error": error.to_payload()},
                    headers={"Retry-After": "1"},
                )
                return
            except JobError as error:
                self._reply(400, {"error": error.to_payload()})
                return
            self._reply(202, {"job_id": job_id})
            return
        if self.path == "/shutdown":
            self._reply(202, {"draining": True})
            self.daemon.request_shutdown()
            return
        self._reply(404, {"error": {"code": "not-found", "message": self.path}})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._reply(200, {"ok": True})
            return
        if self.path == "/stats":
            self._reply(200, self.daemon.server.stats())
            return
        if self.path.startswith("/jobs/"):
            tail = self.path[len("/jobs/"):]
            job_id = _ascii_int(tail)
            if job_id is None:
                self._reply(
                    400,
                    {"error": {
                        "code": "invalid-request",
                        "message": f"job id must be an integer, got {tail!r}",
                    }},
                )
                return
            try:
                payload = self.daemon.server.poll(job_id)
            except JobError as error:
                self._reply(404, {"error": error.to_payload()})
                return
            self._reply(200, payload)
            return
        self._reply(404, {"error": {"code": "not-found", "message": self.path}})


class ServeDaemon:
    """One daemon: an HTTP front plus the in-process server behind it.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    what was actually bound.  The daemon owns the server lifecycle:
    :meth:`serve_forever` starts it, and any shutdown route —
    the endpoint, ``SIGTERM``, ``SIGINT``, or :meth:`request_shutdown`
    — drains it gracefully before the loop returns.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        drain_deadline_seconds: float | None = None,
    ) -> None:
        deadline = drain_deadline_seconds
        if deadline is not None and not 0 < deadline < math.inf:
            raise ValueError("drain_deadline_seconds must be positive and finite")
        self.server = Server(config)
        self.verbose = verbose
        #: Hard cap on the SIGTERM/shutdown drain: after this many
        #: seconds any still-pending job is failed (``server-stopped``)
        #: and the process exits anyway — a stuck job cannot wedge it.
        #: ``None`` drains without limit.
        self.drain_deadline_seconds = drain_deadline_seconds
        self._stop_event = threading.Event()
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        self._http = ThreadingHTTPServer((host, port), handler)
        self._http_thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeDaemon":
        """Start the dispatcher and the HTTP loop (non-blocking)."""
        self.server.start()
        if self._http_thread is None:
            self._http_thread = threading.Thread(
                target=self._http.serve_forever,
                name="repro-serve-http",
                daemon=True,
            )
            self._http_thread.start()
        return self

    def request_shutdown(self) -> None:
        """Begin the graceful drain (returns immediately)."""
        self._stop_event.set()

    def handle_signal(self, signum: int, frame: object = None) -> None:
        """Signal-handler entry point: SIGTERM/SIGINT -> graceful drain."""
        self.request_shutdown()

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGTERM, self.handle_signal)
        signal.signal(signal.SIGINT, self.handle_signal)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a shutdown was requested; then drain and stop.

        Returns ``False`` when ``timeout`` expired with the daemon still
        running (nothing is torn down in that case).
        """
        if not self._stop_event.wait(timeout):
            return False
        self.close()
        return True

    def close(self) -> None:
        """Stop intake, drain the queue, stop the HTTP loop.

        The drain is bounded by :attr:`drain_deadline_seconds`; past it,
        pending jobs are failed fast and teardown proceeds.
        """
        self._stop_event.set()
        self.server.shutdown(
            drain=True, timeout=self.drain_deadline_seconds
        )
        if self._http_thread is not None:
            self._stop_http_loop()
            self._http_thread.join(timeout=5)
        self._http.server_close()

    def _stop_http_loop(self) -> None:
        """``shutdown()`` the HTTP loop without waiting out its poll.

        ``serve_forever`` sees a stop request only when its 0.5 s
        ``select`` returns.  A connection makes it return at once, but
        one that arrives before the request is set is served and the
        loop polls again, so keep connecting until ``shutdown()`` returns.
        """
        stopper = threading.Thread(target=self._http.shutdown)
        stopper.start()
        host, port = self.address
        if host == "0.0.0.0":
            host = "127.0.0.1"
        while stopper.is_alive():
            try:
                socket.create_connection((host, port), timeout=1).close()
            except OSError:
                pass
            stopper.join(0.01)

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_daemon(daemon: ServeDaemon) -> int:
    """The blocking ``python -m repro serve`` body: serve ``daemon``
    until a shutdown request, then drain it."""
    daemon.install_signal_handlers()
    daemon.start()
    bound_host, bound_port = daemon.address
    config = daemon.server.config
    print(
        f"serving partitioning jobs on http://{bound_host}:{bound_port} "
        f"({config.workers} worker(s), queue capacity "
        f"{config.queue_capacity}); SIGTERM drains gracefully"
    )
    daemon.wait()
    print("drained; bye")
    return 0
