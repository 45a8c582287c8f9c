"""Scenario-suite bench: the whole registry, gated against the baseline.

Runs every registered scenario through the batched suite runner and
checks the three properties the suite exists for:

* every scenario still partitions sanely (``final <= initial``, the
  deterministic cycle counts reproduce across back-to-back runs);
* the two new kernel-rich workloads (FIR/IIR filter bank, Viterbi
  trellis decoder) are present and contribute non-trivial Pareto
  fronts;
* nothing regressed by more than 20% in total cycles against the
  committed baseline (``benchmarks/suite_baseline.json``) — the same
  gate CI runs via ``python -m repro suite compare``.

Records the run into ``BENCH_suite.json`` at the repo root (uploaded as
a CI artifact) so any run is diffable against any other with
``suite compare``.
"""

import json
import time
from pathlib import Path

from repro import telemetry
from repro.search import make_partitioner
from repro.suite import (
    RegressionThresholds,
    assert_no_regressions,
    compare_runs,
    default_suite,
    read_run_json,
    run_suite,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_suite.json"
BASELINE_PATH = Path(__file__).resolve().parent / "suite_baseline.json"


def test_suite_runs_green_and_matches_baseline(capsys):
    run = run_suite(max_workers=1)

    names = run.scenario_names()
    assert len(names) == len(default_suite())
    for result in run.results:
        assert result.total_cycles <= result.initial_cycles
        assert result.reduction_percent >= 0.0
        assert result.wall_time_seconds > 0.0
        # Evaluation throughput is recorded per scenario so it can gate
        # longitudinally like cycles do.
        assert result.configs_per_second > 0.0

    # The two new workloads are on the board.
    workloads = {result.workload for result in run.results}
    assert any(w.startswith("filterbank-pipeline") for w in workloads)
    assert any(w.startswith("viterbi-decoder") for w in workloads)

    # The CI gate, inlined: nothing slower than baseline + 20% cycles.
    baseline = read_run_json(BASELINE_PATH)
    comparison = compare_runs(
        baseline, run, RegressionThresholds(cycle_percent=20.0)
    )
    assert_no_regressions(comparison)

    run.write_json(BENCH_PATH)
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["results"]
    assert read_run_json(BENCH_PATH).scenario_names()
    with capsys.disabled():
        print(f"\n[bench_suite] {comparison.summary()}")
        print(f"[bench_suite] results -> {BENCH_PATH}")


def test_suite_cycles_are_deterministic():
    scenarios = [s for s in default_suite() if s.name in (
        "synth-skewed", "filterbank-greedy", "viterbi-greedy",
    )]
    first = run_suite(scenarios, max_workers=1)
    second = run_suite(scenarios, max_workers=1)
    assert [r.total_cycles for r in first.results] == [
        r.total_cycles for r in second.results
    ]
    assert [r.moved_bb_ids for r in first.results] == [
        r.moved_bb_ids for r in second.results
    ]


def test_new_workloads_have_nontrivial_pareto_fronts(capsys):
    """The acceptance claim: both new named workloads appear on the
    Pareto reports with real cycles/moves/rows trade-offs."""
    fronts = {}
    for scenario in default_suite():
        if scenario.name not in ("filterbank-greedy", "viterbi-greedy"):
            continue
        workload = scenario.workload.build()
        platform = scenario.platform.build()
        partitioner = make_partitioner(
            scenario.algorithm, workload, platform
        )
        initial = partitioner.initial_cycles()
        # A deliberately tight constraint walks the whole greedy
        # trajectory, so the front spans the full cycles/moves curve.
        partitioner.run(max(1, round(initial * 0.05)))
        front = partitioner.pareto_front()
        fronts[workload.name] = front
        # The front spans from the all-FPGA corner to the best split.
        assert any(p.moved_kernel_count == 0 for p in front)
        assert any(p.moved_kernel_count >= 1 for p in front)
        assert len(front) >= 3
    assert set(fronts) == {"filterbank-pipeline", "viterbi-decoder"}
    with capsys.disabled():
        for name, front in fronts.items():
            print(f"\n[bench_suite] {name}: Pareto front size {len(front)}")


def test_injected_regression_is_detected():
    """Doubling one scenario's cycles must trip the 20% gate."""
    baseline = read_run_json(BASELINE_PATH)
    payload = baseline.to_json_dict()
    payload["results"][0]["total_cycles"] *= 2
    from repro.suite import SuiteRun

    doctored = SuiteRun.from_json_dict(payload)
    comparison = compare_runs(
        baseline, doctored, RegressionThresholds(cycle_percent=20.0)
    )
    assert comparison.has_regressions
    (regression,) = comparison.regressions()
    assert regression.cycle_delta_percent == 100.0


def test_injected_throughput_regression_is_detected():
    """A 100x configs_per_second collapse must trip the (opt-in)
    throughput gate — evaluation-speed regressions gate like cycle
    regressions."""
    baseline = read_run_json(BASELINE_PATH)
    payload = baseline.to_json_dict()
    gated = [
        entry
        for entry in payload["results"]
        if entry["configs_per_second"] >= 1000.0
    ]
    assert gated, "baseline predates throughput recording"
    doctored_payload = dict(payload)
    doctored_payload["results"] = [
        {**entry, "configs_per_second": entry["configs_per_second"] / 100}
        for entry in payload["results"]
    ]
    from repro.suite import SuiteRun

    doctored = SuiteRun.from_json_dict(doctored_payload)
    comparison = compare_runs(
        baseline, doctored, RegressionThresholds(throughput_percent=50.0)
    )
    assert comparison.has_regressions
    assert any(
        "configs_per_second" in reason
        for delta in comparison.regressions()
        for reason in delta.reasons
    )


def _timed_suite(scenarios, enabled, repetitions=3):
    """Best-of-N wall time for the suite subset with telemetry forced
    on or off.  Min-of-N is the standard variance killer: any one rep
    can be slowed by scheduler noise, but the minimum converges on the
    true cost."""
    best = float("inf")
    run = None
    telemetry.set_enabled(enabled)
    try:
        for _ in range(repetitions):
            telemetry.reset_trace()
            started = time.perf_counter()
            run = run_suite(scenarios, max_workers=1)
            best = min(best, time.perf_counter() - started)
    finally:
        telemetry.set_enabled(None)
        telemetry.reset_trace()
    return best, run


def _fast_scenarios():
    return [s for s in default_suite() if s.name in (
        "synth-small", "synth-skewed", "filterbank-greedy",
        "viterbi-greedy",
    )]


def test_telemetry_overhead_within_two_percent(capsys):
    """The PR's observability budget: spans sit at phase boundaries
    only, so telemetry-on must cost <= 2% over REPRO_TELEMETRY=0 (plus
    an absolute noise floor for sub-second suites, where 2% of the wall
    is smaller than timer scatter)."""
    scenarios = _fast_scenarios()
    _timed_suite(scenarios, enabled=True, repetitions=1)  # warm caches
    off_best, _ = _timed_suite(scenarios, enabled=False)
    on_best, _ = _timed_suite(scenarios, enabled=True)
    noise_floor = 0.15  # seconds; scheduler + allocator scatter
    budget = off_best * 1.02 + noise_floor
    with capsys.disabled():
        overhead = (on_best - off_best) / off_best * 100.0
        print(
            f"\n[bench_suite] telemetry overhead: on={on_best:.3f}s "
            f"off={off_best:.3f}s ({overhead:+.2f}%)"
        )
    assert on_best <= budget, (
        f"telemetry overhead {on_best - off_best:.3f}s exceeds 2% + "
        f"{noise_floor}s noise floor (on={on_best:.3f}s off={off_best:.3f}s)"
    )


def test_results_identical_with_telemetry_on_and_off():
    """Telemetry observes, never steers: cycles and moved blocks are
    bit-identical whether tracing is enabled or not, and phase data
    appears only when it is."""
    scenarios = _fast_scenarios()
    _, run_on = _timed_suite(scenarios, enabled=True, repetitions=1)
    _, run_off = _timed_suite(scenarios, enabled=False, repetitions=1)
    assert [r.total_cycles for r in run_on.results] == [
        r.total_cycles for r in run_off.results
    ]
    assert [r.moved_bb_ids for r in run_on.results] == [
        r.moved_bb_ids for r in run_off.results
    ]
    assert [r.rows_used for r in run_on.results] == [
        r.rows_used for r in run_off.results
    ]
    assert all(r.phases for r in run_on.results)
    assert all(r.phases == () for r in run_off.results)


def test_phase_breakdowns_reconcile_with_wall_time():
    """Per-scenario phase seconds are exclusive wall-clock slices, so
    their sum can never exceed the scenario's recorded wall — serial
    and with pooled workers shipping subtraces back."""
    scenarios = _fast_scenarios()
    for workers in (1, 2):
        telemetry.set_enabled(True)
        try:
            telemetry.reset_trace()
            run = run_suite(scenarios, max_workers=workers)
        finally:
            telemetry.set_enabled(None)
            telemetry.reset_trace()
        for result in run.results:
            phase_sum = sum(seconds for _, seconds in result.phases)
            assert phase_sum <= result.wall_time_seconds + 1e-6, (
                f"{result.scenario} (workers={workers}): phases "
                f"{phase_sum:.6f}s > wall {result.wall_time_seconds:.6f}s"
            )
            assert all(seconds >= 0.0 for _, seconds in result.phases)
