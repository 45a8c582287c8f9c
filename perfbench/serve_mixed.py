"""Workload ``serve-mixed``: open-loop HTTP traffic against the daemon.

An in-process ``ServeDaemon(ServerConfig(workers=2), port=0)`` takes
jobs from one generator thread over one plain keep-alive
``http.client`` connection.  The schedule is fixed in advance from the
workload seed (open loop: a slow server does not slow the sender) and
has three parts:

* interactive jobs — single greedy jobs, Poisson arrivals at ``RATE``/s
  (conditioned on their count), on six hot pairs weighted 1, 1/2, ...,
  1/6 (Zipf);
* a cold tail — ``COLD_SHARE`` of the interactive jobs go to distinct
  synthetic pairs, which miss the table cache and evict hot entries;
* sweeps — every ``SWEEP_EVERY`` s, 6 jobs (2 fractions × greedy,
  annealing and exact branch-and-bound) on one hot pair fall due at once.

Single jobs take the dispatcher's serial path; sweep jobs that reach the
dispatcher together take the process pool.  A job's latency runs from
its due time to the later of its ``POST /jobs`` response (a client has
no job id before it) and its ``finished_at``, read from
``daemon.server`` because the HTTP API has no blocking wait.  The
daemon's responses leave in two segments on a Nagle socket, so each
request waits for the client's delayed acknowledgement (~40 ms on
Linux); the latency carries that stall, as every plain client sees it.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass

from harness import median, peak_rss_mb, percentile

from repro.partition.engine import EngineConfig
from repro.search import make_partitioner
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import JobRequest
from repro.serve.server import ServerConfig

NAME = "serve-mixed"
#: One connection sends one request per ~45 ms, so 4 singles/s plus a
#: 6-job sweep every 2.5 s keep it busy ~30% of the time: most single
#: jobs go out on time and the median is not a queueing artefact.
RATE = 4.0
COLD_SHARE = 0.05
SWEEP_EVERY = 2.5
SWEEP_FRACTIONS = (0.8, 0.5)
SWEEP_ALGORITHMS = ("greedy", "annealing", "exhaustive:prune=true")
INTERACTIVE_FRACTIONS = (0.9, 0.75, 0.6, 0.5)
WORKERS = 2
#: How long to wait for the last jobs after the schedule ends.
DRAIN_SECONDS = 60.0
#: The untraced half of a traced run drives this many times ``seconds``,
#: so that ``serve.sweep_p50_ms`` has 20 sweeps at the default 25 s.
PLAIN_TRACE_SPAN = 2


#: The six hot pairs, hottest first (Zipf weights 1, 1/2, ..., 1/6).
#: They are the same for every seed, so a seed changes arrival times,
#: pair draws, fractions and the cold tail, not what a hot job costs.
HOT_PAIRS = (
    ("synthetic:48:seed=3", {"afpga": 1500, "cgc_count": 2}),
    ("jpeg", {"afpga": 1500, "cgc_count": 2}),
    ("minic:7", {"afpga": 1500, "cgc_count": 2}),
    ("synthetic:64:seed=5", {"afpga": 900, "cgc_count": 2}),
    ("ofdm-measured", {"afpga": 1500, "cgc_count": 2}),
    ("ofdm", {"afpga": 5000, "cgc_count": 3}),
)
#: Sweeps rotate over the hot pairs whose exact search takes milliseconds;
#: on ofdm-measured it takes ~0.5 s, which would stall the dispatcher.
SWEEP_PAIRS = tuple(pair for pair in HOT_PAIRS if pair[0] != "ofdm-measured")
#: Blocks of each cold-tail synthetic workload (each has its own seed).
COLD_BLOCKS = 32


def make_schedule(seed: int, seconds: float) -> list[tuple[float, str, dict]]:
    """(due offset, kind, payload) in due order; kind is ``interactive``,
    ``cold`` or ``sweep:<n>``.  Every ``1 / COLD_SHARE``-th single job is
    cold, so each run has the same share of them."""
    rng = random.Random(f"{NAME}:{seed}")
    weights = [1.0 / rank for rank in range(1, len(HOT_PAIRS) + 1)]
    cold_every = round(1 / COLD_SHARE)
    schedule: list[tuple[float, str, dict]] = []
    # A Poisson process with N arrivals in [0, T] places them as N sorted
    # uniform draws; fixing N = RATE·T keeps the offered load the same in
    # every run while the arrival times stay Poisson.
    arrivals = sorted(rng.uniform(0, seconds) for _ in range(round(RATE * seconds)))
    for index, due in enumerate(arrivals, start=1):
        fraction = rng.choice(INTERACTIVE_FRACTIONS)
        if index % cold_every == 0:
            workload = (
                f"synthetic:{COLD_BLOCKS}:seed={1000 + 97 * seed + index}"
            )
            schedule.append((due, "cold", {
                "workload": workload, "fraction": fraction,
                "platform": {"afpga": 1500, "cgc_count": 2},
            }))
        else:
            workload, platform = rng.choices(HOT_PAIRS, weights)[0]
            schedule.append((due, "interactive", {
                "workload": workload, "fraction": fraction,
                "platform": platform,
            }))
    sweep = 0
    due = SWEEP_EVERY / 2
    while due < seconds:
        workload, platform = SWEEP_PAIRS[sweep % len(SWEEP_PAIRS)]
        for fraction in SWEEP_FRACTIONS:
            for algorithm in SWEEP_ALGORITHMS:
                schedule.append((due, f"sweep:{sweep}", {
                    "workload": workload, "fraction": fraction,
                    "platform": platform, "algorithm": algorithm,
                }))
        sweep += 1
        due += SWEEP_EVERY
    schedule.sort(key=lambda entry: entry[0])
    return schedule


@dataclass(slots=True)
class Sent:
    """One submission as the generator saw it (monotonic-clock stamps)."""

    kind: str
    payload: dict
    due: float
    sent: float
    acked: float
    status: int
    job_id: int | None


def generate(address, schedule, start: float, tracer=None) -> list[Sent]:
    """Send the schedule open loop over one keep-alive connection."""
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    headers = {"Content-Type": "application/json"}
    sent: list[Sent] = []
    try:
        for offset, kind, payload in schedule:
            due = start + offset
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            body = json.dumps(payload)
            t0 = time.monotonic()
            connection.request("POST", "/jobs", body, headers)
            response = connection.getresponse()
            answer = json.loads(response.read() or b"{}")
            t1 = time.monotonic()
            job_id = answer.get("job_id")
            sent.append(
                Sent(kind, payload, due, t0, t1, response.status, job_id)
            )
            if tracer is not None:
                tracer.add("serve.http_submit", *_perf(t0, t1), job=job_id)
    finally:
        connection.close()
    return sent


_CLOCK_SHIFT = time.perf_counter() - time.monotonic()


def _perf(*stamps: float) -> tuple[float, ...]:
    """monotonic() stamps (the server's clock) on the tracer's clock."""
    return tuple(stamp + _CLOCK_SHIFT for stamp in stamps)


class Service:
    """One daemon, primed on the hot pairs."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.daemon = ServeDaemon(ServerConfig(workers=WORKERS), port=0)
        self.daemon.start()
        try:
            self._prime()
        except BaseException:
            self.daemon.close()
            raise

    def _prime(self) -> None:
        server = self.daemon.server
        ids = [
            server.submit_payload(
                {"workload": w, "platform": p, "fraction": 0.5}
            )
            for w, p in HOT_PAIRS
        ]
        for job_id in ids:
            if server.await_result(job_id, timeout=DRAIN_SECONDS).state != "done":
                raise RuntimeError(f"priming job {job_id} failed")

    def close(self) -> None:
        self.daemon.close()

    def drive(self, schedule, tracer=None):
        """Run ``schedule`` and wait for every job.

        Returns (sent, records by job id, the (first due, last
        finished) window, server stats before, after).
        """
        server = self.daemon.server
        seconds = schedule[-1][0] if schedule else 0.0
        before = server.stats()
        start = time.monotonic() + 0.05
        box: list[list[Sent]] = []
        thread = threading.Thread(
            target=lambda: box.append(
                generate(self.daemon.address, schedule, start, tracer)
            ),
            name="perfbench-generator",
        )
        thread.start()
        thread.join(seconds + DRAIN_SECONDS)
        if thread.is_alive() or not box:
            raise RuntimeError("the load generator did not finish")
        sent = box[0]
        records = {}
        for entry in sent:
            if entry.job_id is not None:
                records[entry.job_id] = server.await_result(
                    entry.job_id, timeout=DRAIN_SECONDS
                )
        end = max(
            [r.finished_at for r in records.values()] + [time.monotonic()]
        )
        after = server.stats()
        return sent, records, (start, end), before, after


def served_results(sent, records) -> list[object]:
    return [
        records[s.job_id].result if s.job_id in records else None
        for s in sent
    ]


def check(sent, records) -> tuple[int, dict[str, object]]:
    """Every job accepted, done, and equal to a serial run of its pair."""
    partitioners: dict[tuple, object] = {}
    failed = 0
    rejected = 0
    mismatched = 0
    for entry in sent:
        record = records.get(entry.job_id)
        if entry.status != 202 or record is None:
            rejected += 1
            failed += 1
            continue
        if record.state != "done":
            failed += 1
            continue
        request = JobRequest.from_payload(entry.payload)
        key = (request.workload, request.platform, request.algorithm)
        partitioner = partitioners.get(key)
        if partitioner is None:
            partitioner = partitioners[key] = make_partitioner(
                request.algorithm,
                request.workload.build(),
                request.platform.build(),
                config=EngineConfig(),
            )
        constraint = max(
            1, round(partitioner.initial_cycles() * request.fraction)
        )
        if partitioner.run(constraint) != record.result:
            mismatched += 1
            failed += 1
    return failed, {
        "all_accepted": rejected == 0,
        "served_equals_serial": mismatched == 0,
    }


def done_at(entry: Sent, records) -> float:
    """When the client can have the job's result: not before the
    response that gives it the job id, nor before the job finished."""
    return max(entry.acked, records[entry.job_id].finished_at)


def latencies(sent, records) -> dict[str, list[float]]:
    """Interactive (and cold) job latencies and sweep latencies, in ms."""
    interactive = [
        (done_at(s, records) - s.due) * 1000
        for s in sent
        if s.kind in ("interactive", "cold") and s.job_id in records
    ]
    sweeps: dict[str, list[Sent]] = {}
    for s in sent:
        if s.kind.startswith("sweep"):
            sweeps.setdefault(s.kind, []).append(s)
    sweep_ms = [
        (
            max(done_at(s, records) for s in group) - group[0].due
        ) * 1000
        for group in sweeps.values()
    ]
    return {"interactive": interactive, "sweep": sweep_ms}


def set_up(seed: int) -> Service:
    return Service(seed)


def measure(service: Service, seconds: float) -> dict[str, object]:
    sent, records, (start, end), _, _ = service.drive(
        make_schedule(service.seed, seconds)
    )
    rss_mb = peak_rss_mb()
    failed, checks = check(sent, records)
    ms = latencies(sent, records)["interactive"]
    return {
        "attempted": len(sent),
        "failed": failed,
        "checks": checks,
        "metrics": {
            "throughput_per_s": len(records) / (end - start),
            "p50_ms": median(ms),
            "peak_rss_mb": rss_mb,
        },
    }


def run_seconds(sent, records) -> float:
    """Seconds the server spent running the jobs of ``sent``."""
    return sum(
        records[s.job_id].finished_at - records[s.job_id].started_at
        for s in sent
    )


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def trace_pass(seed: int, seconds: float, tracer) -> dict[str, object]:
    """A ``PLAIN_TRACE_SPAN × seconds`` schedule untraced, then its first
    ``seconds`` traced, each on a fresh daemon.  The tails come from the
    longer untraced drive, so each has enough samples beyond it."""
    schedule = make_schedule(seed, PLAIN_TRACE_SPAN * seconds)
    prefix = [entry for entry in schedule if entry[0] < seconds]
    service = Service(seed)
    try:
        plain_sent, plain_records, *_ = service.drive(schedule)
    finally:
        service.close()
    service = Service(seed)
    try:
        with tracer.installed():
            sent, records, window, before, after = service.drive(
                prefix, tracer
            )
    finally:
        service.close()
    for record in records.values():
        tracer.add(
            "serve.queue", *_perf(record.submitted_at, record.started_at),
            job=record.job_id,
        )
        tracer.add(
            "serve.run", *_perf(record.started_at, record.finished_at),
            job=record.job_id,
        )
    plain = latencies(plain_sent, plain_records)
    failed, checks = check(sent, records)
    same = served_results(sent, records) == served_results(
        plain_sent[:len(sent)], plain_records
    )
    checks["traced_equals_untraced"] = same
    if not same:
        failed += 1
    # Distributions come from the longer untraced drive, so each tail
    # has at least ten samples beyond it.
    waits = [
        (r.started_at - r.submitted_at) * 1000
        for r in plain_records.values()
    ]
    runs = [
        (r.finished_at - r.started_at) * 1000 for r in plain_records.values()
    ]
    batches = _delta(after, before, "jobs", "batches")
    hits = _delta(after, before, "caches", "tables", "hits")
    misses = _delta(after, before, "caches", "tables", "misses")
    layers = {
        "serve.http_submit_ms": median(
            [(s.acked - s.sent) * 1000 for s in plain_sent]
        ),
        "serve.queue_wait_p50_ms": median(waits),
        "serve.queue_wait_p95_ms": percentile(waits, 0.95),
        "serve.run_p50_ms": median(runs),
        "serve.resolve_ms": sum(tracer.durations("serve.resolve")) * 1000,
        "serve.fanout_ms": sum(tracer.durations("serve.fanout")) * 1000,
        "serve.pooled_fanouts": tracer.counts.get("serve.pooled_fanouts", 0),
        "serve.batches": batches,
        "serve.jobs_per_batch": len(records) / batches if batches else 0.0,
        "serve.table_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": _delta(after, before, "jobs", "rejected"),
        "serve.generator_late_ms": percentile(
            [(s.sent - s.due) * 1000 for s in plain_sent], 0.95
        ),
        "serve.interactive_p95_ms": percentile(plain["interactive"], 0.95),
        "serve.sweep_p50_ms": median(plain["sweep"]),
    }
    return {
        "attempted": len(sent),
        "failed": failed,
        "checks": checks,
        "windows": [_perf(*window)],
        # The wall is fixed by the schedule: compare the time the server
        # spent running the same jobs.
        "walls": (
            run_seconds(plain_sent[:len(sent)], plain_records),
            run_seconds(sent, records),
        ),
        "layers": layers,
    }
