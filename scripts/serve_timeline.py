"""Where a hot served job's time goes, stage by stage, as a Markdown table.

    python scripts/serve_timeline.py [JOBS] >> "$GITHUB_STEP_SUMMARY"

Starts an in-process daemon (``ServeDaemon(ServerConfig(workers=2))``)
with this checkout's ``src`` first on the path, primes one hot pair,
then sends JOBS (default 300) single greedy jobs on it, 50 ms apart,
over one keep-alive ``http.client`` connection, as perfbench's
``serve-mixed`` generator does.  Timers wrap the handler's
``parse_request`` and ``_reply``, ``JobRequest.from_payload``,
``Server.submit``, ``Server._run_batch`` and the ``run_job`` the
dispatcher calls; a row is the median over the jobs.  Two rows are
derived: the wake-up (``submit`` returns to ``_run_batch`` starts) and
the batch's own work (``_run_batch`` minus ``run_job``).  The client
rows are the 202's round trip and, as ``serve-mixed`` counts a job's
latency, the later of the 202 and the job's finish.  Informational;
gates nothing.
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.serve import ServeDaemon, ServerConfig  # noqa: E402
from repro.serve import daemon as daemon_module  # noqa: E402
from repro.serve import server as server_module  # noqa: E402
from repro.serve.jobs import JobRequest  # noqa: E402

JOB = {
    "workload": "synthetic:48:seed=3",
    "platform": {"afpga": 1500, "cgc_count": 2},
    "fraction": 0.5,
}
GAP_SECONDS = 0.05

#: Stage -> (start, end) perf_counter stamps, one per call.
STAMPS: dict[str, list[tuple[float, float]]] = defaultdict(list)


def timed(stage: str, func):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            STAMPS[stage].append((start, time.perf_counter()))

    return wrapper


def install() -> None:
    handler, server = daemon_module._Handler, server_module.Server
    handler.parse_request = timed("parse_request", handler.parse_request)
    handler._reply = timed("_reply", handler._reply)
    JobRequest.from_payload = staticmethod(
        timed("from_payload", JobRequest.from_payload)
    )
    server.submit = timed("submit", server.submit)
    server._run_batch = timed("_run_batch", server._run_batch)
    server_module.run_job = timed("run_job", server_module.run_job)


def drive(jobs: int) -> tuple[list[float], list[float]]:
    """Send ``jobs`` jobs; per job, ms from send to the 202 and from send
    to the later of the 202 and the finish."""
    with ServeDaemon(ServerConfig(workers=2), port=0) as daemon:
        server = daemon.server
        server.await_result(server.submit_payload(JOB), timeout=60)
        STAMPS.clear()
        connection = http.client.HTTPConnection(*daemon.address, timeout=30)
        body = json.dumps(JOB)
        headers = {"Content-Type": "application/json"}
        sent = []
        due = time.monotonic()
        for _ in range(jobs):
            due += GAP_SECONDS
            time.sleep(max(0.0, due - time.monotonic()))
            start = time.monotonic()
            connection.request("POST", "/jobs", body, headers)
            reply = connection.getresponse()
            job_id = json.loads(reply.read())["job_id"]
            sent.append((start, time.monotonic(), job_id))
        connection.close()
        acks, latencies = [], []
        for start, acked, job_id in sent:
            record = server.await_result(job_id, timeout=60)
            acks.append((acked - start) * 1000)
            latencies.append((max(acked, record.finished_at) - start) * 1000)
        return acks, latencies


def median_ms(spans) -> float:
    return statistics.median(end - start for start, end in spans) * 1000


def main() -> int:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    install()
    acks, latencies = drive(jobs)
    rows = [(f"`{stage}`", median_ms(STAMPS[stage])) for stage in (
        "parse_request", "from_payload", "submit", "_reply", "_run_batch",
        "run_job",
    )]
    wakes = [
        (submit[1], batch[0])
        for submit, batch in zip(STAMPS["submit"], STAMPS["_run_batch"])
    ]
    rows.append(("wake-up (`submit` → `_run_batch`)", median_ms(wakes)))
    rows.append((
        "`_run_batch` − `run_job`",
        statistics.median(
            (b_end - b_start) - (r_end - r_start)
            for (b_start, b_end), (r_start, r_end)
            in zip(STAMPS["_run_batch"], STAMPS["run_job"])
        ) * 1000,
    ))
    rows.append(("client: send → 202 read", statistics.median(acks)))
    rows.append((
        "client: send → later of 202 and finish", statistics.median(latencies)
    ))
    print(
        f"{jobs} hot greedy jobs on `{JOB['workload']}`, one keep-alive "
        f"connection, {GAP_SECONDS * 1000:g} ms apart\n"
    )
    print("| stage | median ms |")
    print("|---|---:|")
    for label, ms in rows:
        print(f"| {label} | {ms:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
