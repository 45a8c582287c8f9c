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
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .jobs import JobError, JobValidationError, QueueFullError
from .server import Server, ServerConfig, ServerStoppedError

__all__ = ["ServeDaemon", "run_daemon"]

#: Bodies over this size are rejected outright (jobs are tiny).
_MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    daemon: "ServeDaemon"  # injected by ServeDaemon via class attribute
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, a keep-alive
    # request sent right after a reply waits for the client's delayed ACK.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        if self.daemon.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> object:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request: answer, then close it.
            self.close_connection = True
            if length < 0:
                raise JobValidationError(
                    f"invalid Content-Length header {header!r}"
                )
            raise JobValidationError(
                f"request body too large ({length} bytes)"
            )
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
                self._reply(
                    400,
                    {"error": error.to_payload()},
                    headers=(
                        {"Connection": "close"}
                        if self.close_connection
                        else None
                    ),
                )
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
            if not tail.isdigit():
                self._reply(
                    400,
                    {"error": {
                        "code": "invalid-request",
                        "message": f"job id must be an integer, got {tail!r}",
                    }},
                )
                return
            try:
                payload = self.daemon.server.poll(int(tail))
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
        if (
            drain_deadline_seconds is not None
            and drain_deadline_seconds <= 0
        ):
            raise ValueError("drain_deadline_seconds must be positive")
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
        self._http.shutdown()
        self._http.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5)

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_daemon(
    config: ServerConfig,
    host: str,
    port: int,
    verbose: bool = False,
    drain_deadline_seconds: float | None = None,
) -> int:
    """The blocking ``python -m repro serve`` body."""
    daemon = ServeDaemon(
        config,
        host=host,
        port=port,
        verbose=verbose,
        drain_deadline_seconds=drain_deadline_seconds,
    )
    daemon.install_signal_handlers()
    daemon.start()
    bound_host, bound_port = daemon.address
    print(
        f"serving partitioning jobs on http://{bound_host}:{bound_port} "
        f"({config.workers} worker(s), queue capacity "
        f"{config.queue_capacity}); SIGTERM drains gracefully"
    )
    daemon.wait()
    print("drained; bye")
    return 0
