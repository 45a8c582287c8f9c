"""Chaos bench: deterministic fault schedules through the real server.

Every scenario replays a seed-driven :class:`~repro.faults.FaultPlan`
against an in-process :class:`repro.serve.Server` (real process pool,
real worker deaths) and asserts the three properties the robustness
layer exists for:

* **recovery** — every job reaches ``done`` despite crashed workers
  and injected stalls, with the supervision counters
  (``pool_rebuilds``, ``tasks_recovered``) visible in
  ``stats()["robustness"]``;
* **bit-identity** — the chaotic run's results equal the fault-free
  run's, split for split (supervision may re-run work, never change
  it);
* **bounded p99 inflation** — chaos costs latency, but only the
  injected latency plus a recovery allowance: the chaotic p99 must stay
  under ``fault-free p99 x REPRO_CHAOS_GATE_FACTOR + injected budget``.

All schedules are static data addressed by ``(task_index, attempt)``,
so a failing run replays exactly and the assertions cannot flake on
fault placement.  ``REPRO_CHAOS_JOBS`` shrinks the load for the CI
short profile.  Metrics land in ``BENCH_chaos.json`` (a CI artifact).
"""

import json
import os
import time
import warnings
from pathlib import Path

from repro.faults import FaultPlan
from repro.serve import JobRequest, Server, ServerConfig
from repro.specs import algorithm_spec_from_text, workload_spec_from_text

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: Default job count per scenario; CI overrides with a short profile.
DEFAULT_JOBS = 24

#: Injected stall length for the latency-inflation scenario.  Short on
#: purpose: the gate must see it as *bounded* injected latency.
SLOW_SECONDS = 0.15

GREEDY = algorithm_spec_from_text("greedy")
WORKLOAD = workload_spec_from_text("synthetic:48:seed=11")

_metrics: dict[str, object] = {}


def job_count() -> int:
    return int(os.environ.get("REPRO_CHAOS_JOBS", str(DEFAULT_JOBS)))


def gate_factor() -> float:
    return float(os.environ.get("REPRO_CHAOS_GATE_FACTOR", "4.0"))


def run_load(config: ServerConfig, jobs: int):
    """Submit ``jobs`` identical greedy jobs, await all, return
    ``(payloads, latencies, wall_seconds, stats)``.

    The jobs queue before ``start()``, so the dispatcher takes them as
    one batch and every fault plan addresses one pooled group.
    """
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        server = Server(config)
        job_ids = [
            server.submit(
                JobRequest(workload=WORKLOAD, fraction=0.5, algorithm=GREEDY)
            )
            for __ in range(jobs)
        ]
        with server:
            records = [
                server.await_result(job_id, timeout=300.0)
                for job_id in job_ids
            ]
            stats = server.stats()
    wall = time.perf_counter() - started
    payloads = [record.to_payload() for record in records]
    latencies = [record.latency_seconds() for record in records]
    return payloads, latencies, wall, stats


def percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def results_of(payloads):
    return [payload["result"] for payload in payloads]


def baseline():
    """The fault-free reference run (memoized across tests)."""
    if "baseline" not in _metrics:
        jobs = job_count()
        payloads, latencies, wall, __ = run_load(
            ServerConfig(workers=4), jobs
        )
        assert all(p["state"] == "done" for p in payloads)
        _metrics["baseline"] = {
            "jobs": jobs,
            "p50_seconds": percentile(latencies, 0.50),
            "p99_seconds": percentile(latencies, 0.99),
            "wall_seconds": wall,
            "results": results_of(payloads),
        }
    return _metrics["baseline"]


# ----------------------------------------------------------------------
# Scenario 1: worker crashes — recovery and bit-identity
# ----------------------------------------------------------------------
def test_crashed_workers_recover_bit_identical():
    reference = baseline()
    jobs = reference["jobs"]
    # Two of the four workers die on their first task; the supervisor
    # must salvage, rebuild once, and merge bit-identically.  (A pool
    # break re-runs its victims at the next attempt number, so which
    # *other* tasks were in flight is racy — the scenario asserts only
    # crash-path counters.)
    plan = FaultPlan.crash_at(0, 1)
    payloads, latencies, wall, stats = run_load(
        ServerConfig(workers=4, fault_plan=plan), jobs
    )
    assert all(p["state"] == "done" for p in payloads), [
        p.get("error") for p in payloads if p["state"] != "done"
    ]
    assert results_of(payloads) == reference["results"], (
        "chaotic results diverged from the fault-free run"
    )
    robustness = stats["robustness"]
    assert robustness["pool_rebuilds"] >= 1
    assert robustness["tasks_recovered"] >= 2
    _metrics["crash"] = {
        "p99_seconds": percentile(latencies, 0.99),
        "wall_seconds": wall,
        "pool_rebuilds": robustness["pool_rebuilds"],
        "tasks_recovered": robustness["tasks_recovered"],
    }


# ----------------------------------------------------------------------
# Scenario 2: injected stalls — bounded p99 inflation
# ----------------------------------------------------------------------
def test_slow_faults_inflate_p99_boundedly():
    reference = baseline()
    jobs = reference["jobs"]
    plan = FaultPlan.seeded(
        seed=17,
        task_count=jobs,
        slow_rate=0.25,
        slow_seconds=SLOW_SECONDS,
    )
    injected = sum(1 for s in plan.specs if s.kind == "slow")
    assert injected >= 1, "seeded plan injected nothing; raise the rate"
    payloads, latencies, wall, stats = run_load(
        ServerConfig(workers=4, fault_plan=plan),
        jobs,
    )
    assert all(p["state"] == "done" for p in payloads)
    assert results_of(payloads) == reference["results"]

    p99 = percentile(latencies, 0.99)
    # The stalls are serialized at worst (4 workers, so in practice
    # less); allow the full injected budget plus the regression factor
    # over the fault-free p99.
    budget = (
        reference["p99_seconds"] * gate_factor()
        + injected * SLOW_SECONDS
        + 0.25  # absolute noise floor for short CI profiles
    )
    assert p99 <= budget, (
        f"chaotic p99 {p99:.3f}s exceeds budget {budget:.3f}s "
        f"(fault-free p99 {reference['p99_seconds']:.3f}s, "
        f"{injected} x {SLOW_SECONDS}s injected)"
    )
    _metrics["slow"] = {
        "injected_stalls": injected,
        "p99_seconds": p99,
        "p99_budget_seconds": budget,
        "wall_seconds": wall,
    }


# ----------------------------------------------------------------------
# Artifact
# ----------------------------------------------------------------------
def test_write_chaos_artifact(capsys):
    assert "baseline" in _metrics, "scenario tests did not run first"
    payload = {
        name: (
            {k: v for k, v in metrics.items() if k != "results"}
            if isinstance(metrics, dict)
            else metrics
        )
        for name, metrics in _metrics.items()
    }
    payload["gate_factor"] = gate_factor()
    BENCH_PATH.write_text(json.dumps({"chaos": payload}, indent=2) + "\n")
    written = json.loads(BENCH_PATH.read_text())["chaos"]
    assert written["crash"]["pool_rebuilds"] >= 1
    assert written["slow"]["p99_seconds"] <= written["slow"][
        "p99_budget_seconds"
    ]
    with capsys.disabled():
        base = _metrics["baseline"]
        print(
            f"\n[bench_chaos] {base['jobs']} jobs/scenario, fault-free "
            f"p99={base['p99_seconds']:.3f}s; crash p99="
            f"{_metrics['crash']['p99_seconds']:.3f}s "
            f"({_metrics['crash']['pool_rebuilds']} rebuilds); slow p99="
            f"{_metrics['slow']['p99_seconds']:.3f}s "
            f"(budget {_metrics['slow']['p99_budget_seconds']:.3f}s)"
        )
        print(f"[bench_chaos] results -> {BENCH_PATH}")
