"""Serve load bench: hundreds of concurrent jobs, one priced table.

Drives the in-process :class:`repro.serve.Server` with a skewed
synthetic job mix — many concurrent requests, few distinct
(workload × platform) pairs — and checks the properties the serving
layer exists for:

* **batching collapses duplicate pricing**: N jobs over K pairs build
  exactly K cost tables (``cost_table_builds`` telemetry), never N;
* **served results are bit-identical** to what a serial
  ``python -m repro partition`` run produces for the same spec;
* **cycles are deterministic** even when arrival order is not — two
  loads with different shuffles decide the same splits;
* **latency/throughput do not regress**: p50/p99 and jobs/sec gate
  against ``benchmarks/serve_baseline.json``.

The gate is deliberately noise-floored: CI machines differ from the
machine that recorded the baseline, so the bench fails only on a
``REPRO_SERVE_GATE_FACTOR``-fold (default 4x) regression, with an
absolute p99 floor below which timing scatter is ignored.  Same-machine
comparisons (developer laptops re-running the bench) are therefore the
only place small drifts show — CI catches collapses, not ripples.

``REPRO_SERVE_JOBS`` shrinks/grows the load (CI uses a short profile).
Metrics land in ``BENCH_serve.json`` (uploaded as a CI artifact) and,
as ``serve-*`` scenario rows, in a suite store so the longitudinal
trend tooling covers serving alongside partitioning.
"""

import json
import os
import random
import threading
import time
from pathlib import Path

from repro import telemetry
from repro.explore import PlatformSpec, WorkloadSpec
from repro.search import make_partitioner
from repro.serve import JobRequest, Server, ServerConfig
from repro.specs import algorithm_spec_from_text
from repro.suite import ResultStore, ScenarioResult, SuiteRun

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
BASELINE_PATH = Path(__file__).resolve().parent / "serve_baseline.json"

#: Default concurrent-job count; CI overrides with a short profile.
DEFAULT_JOBS = 240

#: The skewed pair mix: most load hammers one hot pair, a tail of
#: colder pairs keeps the LRU honest.  Weights sum to 1.
PAIR_MIX = (
    (WorkloadSpec.synthetic(48, seed=11), PlatformSpec(), 0.625),
    (WorkloadSpec.synthetic(48, seed=23), PlatformSpec(afpga=900), 0.2),
    (WorkloadSpec.synthetic(32, seed=7), PlatformSpec(), 0.1),
    (WorkloadSpec.synthetic(32, seed=41), PlatformSpec(cgc_count=3), 0.075),
)

GREEDY = algorithm_spec_from_text("greedy")


def job_count() -> int:
    return int(os.environ.get("REPRO_SERVE_JOBS", str(DEFAULT_JOBS)))


def build_requests(jobs: int, shuffle_seed: int) -> list[JobRequest]:
    """The deterministic skewed load: same multiset of jobs for every
    seed, a different arrival order per seed."""
    requests = []
    for index in range(jobs):
        # Deterministic pair assignment by position in the mix, so two
        # shuffles serve the exact same multiset of jobs.
        point = (index + 0.5) / jobs
        cumulative = 0.0
        workload, platform, _ = PAIR_MIX[-1]
        for candidate_workload, candidate_platform, weight in PAIR_MIX:
            cumulative += weight
            if point < cumulative:
                workload, platform = candidate_workload, candidate_platform
                break
        requests.append(
            JobRequest(
                workload=workload,
                platform=platform,
                fraction=0.5,
                algorithm=GREEDY,
            )
        )
    random.Random(shuffle_seed).shuffle(requests)
    return requests


def run_load(requests, workers=2, submit_threads=4):
    """Submit ``requests`` from several threads at once, await all.

    Returns ``(records, wall_seconds, cost_table_builds)``; records are
    in submission-id order regardless of which thread won each race.
    """
    telemetry.reset_trace()
    config = ServerConfig(
        workers=workers,
        queue_capacity=max(len(requests) * 2, 64),
    )
    job_ids: list[int] = []
    id_lock = threading.Lock()
    started = time.perf_counter()
    with Server(config) as server:
        def submit(chunk):
            for request in chunk:
                job_id = server.submit(request)
                with id_lock:
                    job_ids.append(job_id)

        chunk_size = (len(requests) + submit_threads - 1) // submit_threads
        threads = [
            threading.Thread(
                target=submit,
                args=(requests[i:i + chunk_size],),
            )
            for i in range(0, len(requests), chunk_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = [
            server.await_result(job_id, timeout=300.0)
            for job_id in sorted(job_ids)
        ]
    wall = time.perf_counter() - started
    builds = telemetry.get_trace().total_counter("cost_table_builds")
    telemetry.reset_trace()
    return records, wall, builds


def percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def gate_failures(current, baseline, factor, p99_floor=0.25):
    """The regression gate, as data -> reasons (empty means green).

    p99 may grow to ``baseline * factor`` before failing, and never
    fails below the absolute ``p99_floor`` (timer scatter on short
    loads); throughput may fall to ``baseline / factor``.
    """
    failures = []
    p99_budget = max(baseline["p99_seconds"] * factor, p99_floor)
    if current["p99_seconds"] > p99_budget:
        failures.append(
            f"p99 {current['p99_seconds']:.3f}s exceeds budget "
            f"{p99_budget:.3f}s (baseline "
            f"{baseline['p99_seconds']:.3f}s x{factor})"
        )
    floor = baseline["jobs_per_second"] / factor
    if current["jobs_per_second"] < floor:
        failures.append(
            f"throughput {current['jobs_per_second']:.1f} jobs/s below "
            f"floor {floor:.1f} (baseline "
            f"{baseline['jobs_per_second']:.1f} / {factor})"
        )
    return failures


def serial_reference(request: JobRequest):
    """What ``python -m repro partition`` would decide for this job."""
    workload = request.workload.build()
    platform = request.platform.build()
    partitioner = make_partitioner(request.algorithm, workload, platform)
    constraint = max(
        1, round(partitioner.initial_cycles() * request.fraction)
    )
    return partitioner.run(constraint)


def test_serve_load_batches_collapse_and_gate(capsys, tmp_path):
    jobs = job_count()
    requests = build_requests(jobs, shuffle_seed=1)
    records, wall, builds = run_load(requests)

    assert all(record.state == "done" for record in records)
    # The collapse claim: one priced table per distinct pair, period.
    assert builds == len(PAIR_MIX), (
        f"{jobs} jobs over {len(PAIR_MIX)} pairs built {builds} cost "
        "tables; batching failed to collapse duplicate pricing"
    )

    latencies = [record.latency_seconds() for record in records]
    metrics = {
        "jobs": jobs,
        "distinct_pairs": len(PAIR_MIX),
        "cost_table_builds": builds,
        "collapse_factor": jobs / builds,
        "p50_seconds": percentile(latencies, 0.50),
        "p99_seconds": percentile(latencies, 0.99),
        "jobs_per_second": jobs / wall,
        "wall_seconds": wall,
    }

    # serve-* scenario rows: p99 as the wall metric, jobs/sec as the
    # throughput metric, so the longitudinal trend tooling graphs
    # serving next to partitioning.
    run = SuiteRun(label="serve-load", fingerprint="serve-bench")
    for pair_index, (workload, platform, _) in enumerate(PAIR_MIX):
        pair_records = [
            r for r in records
            if r.request.workload == workload
            and r.request.platform == platform
        ]
        result = pair_records[0].result
        run.results.append(
            ScenarioResult(
                scenario=f"serve-pair-{pair_index}",
                workload=workload.label,
                platform=platform.label,
                algorithm="greedy",
                constraint_fraction=0.5,
                timing_constraint=result.timing_constraint,
                initial_cycles=result.initial_cycles,
                total_cycles=result.final_cycles,
                reduction_percent=(
                    100.0
                    * (result.initial_cycles - result.final_cycles)
                    / result.initial_cycles
                ),
                kernels_moved=len(result.moved_bb_ids),
                moved_bb_ids=tuple(result.moved_bb_ids),
                rows_used=0,
                constraint_met=result.constraint_met,
                wall_time_seconds=metrics["p99_seconds"],
                configs_per_second=metrics["jobs_per_second"],
            )
        )
    with ResultStore(tmp_path / "serve_trend.sqlite") as store:
        store.record_run(run)
        points = store.scenario_trend_points("serve-pair-0")
    assert len(points) == 1

    BENCH_PATH.write_text(
        json.dumps(
            {"serve": metrics, "suite_run": run.to_json_dict()}, indent=2
        )
        + "\n"
    )
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["serve"]["cost_table_builds"] >= 1
    assert SuiteRun.from_json_dict(payload["suite_run"]).scenario_names()

    baseline = json.loads(BASELINE_PATH.read_text())["serve"]
    factor = float(os.environ.get("REPRO_SERVE_GATE_FACTOR", "4.0"))
    failures = gate_failures(metrics, baseline, factor)
    with capsys.disabled():
        print(
            f"\n[bench_serve] {jobs} jobs, {builds} builds "
            f"(collapse x{metrics['collapse_factor']:.0f}), "
            f"p50={metrics['p50_seconds']:.3f}s "
            f"p99={metrics['p99_seconds']:.3f}s "
            f"{metrics['jobs_per_second']:.1f} jobs/s"
        )
        print(f"[bench_serve] results -> {BENCH_PATH}")
    assert not failures, "; ".join(failures)


def test_served_results_bit_identical_to_serial_partition():
    """Every distinct pair's served split equals the serial CLI path."""
    requests = [
        JobRequest(
            workload=workload, platform=platform, fraction=0.5,
            algorithm=GREEDY,
        )
        for workload, platform, _ in PAIR_MIX
    ]
    # Three copies of each pair so batching actually engages.
    records, _, builds = run_load(requests * 3, workers=1)
    assert builds == len(PAIR_MIX)
    for request in requests:
        reference = serial_reference(request)
        served = [
            r.result for r in records if r.request.pair_key == request.pair_key
        ]
        assert served, request.describe()
        for result in served:
            assert result.final_cycles == reference.final_cycles
            assert result.moved_bb_ids == reference.moved_bb_ids
            assert result.timing_constraint == reference.timing_constraint
            assert [s.total_cycles for s in result.steps] == [
                s.total_cycles for s in reference.steps
            ]


def test_cycles_deterministic_across_arrival_orders():
    """Different arrival orders, same decisions: the job multiset alone
    determines every split."""
    jobs = min(job_count(), 60)
    first, _, _ = run_load(build_requests(jobs, shuffle_seed=2))
    second, _, _ = run_load(build_requests(jobs, shuffle_seed=3))

    def by_pair(records):
        outcome = {}
        for record in records:
            outcome.setdefault(record.request.pair_key, set()).add(
                (
                    record.result.final_cycles,
                    tuple(record.result.moved_bb_ids),
                )
            )
        return outcome

    first_outcomes, second_outcomes = by_pair(first), by_pair(second)
    assert first_outcomes == second_outcomes
    # Determinism within a pair too: every job on a pair decided the
    # same split, not merely the same set across runs.
    assert all(len(splits) == 1 for splits in first_outcomes.values())


def test_gate_detects_injected_regressions():
    """Doctored metrics must trip the gate (the gate logic itself is
    timing-independent, so this cannot flake)."""
    baseline = json.loads(BASELINE_PATH.read_text())["serve"]
    healthy = dict(baseline)
    assert gate_failures(healthy, baseline, factor=4.0) == []

    slow = dict(baseline, p99_seconds=baseline["p99_seconds"] * 5 + 0.5)
    assert any(
        "p99" in reason
        for reason in gate_failures(slow, baseline, factor=4.0)
    )

    cold = dict(
        baseline, jobs_per_second=baseline["jobs_per_second"] / 10
    )
    assert any(
        "throughput" in reason
        for reason in gate_failures(cold, baseline, factor=4.0)
    )

    # The noise floor: a p99 under the absolute floor never fails, no
    # matter how tiny the baseline was.
    jittery = dict(baseline, p99_seconds=0.2)
    tiny_baseline = dict(baseline, p99_seconds=0.001)
    assert gate_failures(jittery, tiny_baseline, factor=4.0) == []
