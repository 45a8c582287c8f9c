"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flow-minic --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` runs a fixed amount of the workload (the item
list, the pair grid, or one schedule) plain and with every layer shim
installed, and reports the per-layer metrics.  The last line of standard
output is the JSON result; the lines above it are the same numbers for
people, plus the checks and the environment.  ``--workload all`` runs
every workload both ways, each in a fresh interpreter, and prints every
metric.

Each run is one process: module caches and peak RSS never carry over.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
import time

from harness import BENCH_DIR, OUT_DIR, ROOT, emit, median, metric

#: Every workload this script runs.  ``dse-grid`` is not in
#: BENCHMARK.json: on a noisy 2-core host its runs spread beyond the
#: bounds (see METRICS.md), so it runs by name, for its pricing and
#: exact-search trace.
MODULES = {
    "flow-minic": "flow_minic", "dse-grid": "dse_grid",
    "serve-mixed": "serve_mixed",
}
WORKLOADS = tuple(MODULES)
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t)"
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library() -> None:
    """Isolate the environment, then put the checkout's ``src`` first."""
    os.environ.pop("REPRO_PROFILE_CACHE_DIR", None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {src}; nothing to measure")
    sys.path.insert(0, str(src))


def import_seconds(workload: str) -> float:
    """Median time to import the workload module (and with it the
    library) in a fresh interpreter: the one-time part of set-up."""
    code = _IMPORT_PROBE.format(module=MODULES[workload])
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src")],
            capture_output=True, text=True, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


def workload_module(workload: str):
    """The module implementing a workload: ``set_up(seed)``,
    ``measure(subject, seconds)`` (which reads the peak RSS right after
    its timed loop, before its checks) and
    ``trace_pass(seed, seconds, tracer)``."""
    return importlib.import_module(MODULES[workload])


def close(subject) -> None:
    """Release what a set-up holds (the serve daemon); others hold nothing."""
    if hasattr(subject, "close"):
        subject.close()


def set_up(module, seed: int):
    """SETUP_REPEATS fresh set-ups; returns (the last, median seconds).

    Each set-up but the last is released before the next starts, so the
    peak RSS holds one set-up, as a single run of the workload would.
    """
    subject, seconds = None, []
    for _ in range(SETUP_REPEATS):
        if subject is not None:
            close(subject)
            subject = None
            gc.collect()
        start = time.perf_counter()
        subject = module.set_up(seed)
        seconds.append(time.perf_counter() - start)
    return subject, median(seconds)


def measure(workload: str, seed: int, seconds: float):
    import_s = import_seconds(workload)
    module = workload_module(workload)
    subject, setup_s = set_up(module, seed)
    try:
        outcome = module.measure(subject, seconds)
    finally:
        close(subject)
    outcome["metrics"]["setup_s"] = import_s + setup_s
    return outcome


def trace(workload: str, seed: int, seconds: float):
    from spans import Tracer

    tracer = Tracer()
    outcome = workload_module(workload).trace_pass(seed, seconds, tracer)
    windows = outcome["windows"]
    plain, traced = outcome["walls"]
    layers = layer_metrics(tracer, outcome["layers"])
    layers["trace.overhead_ratio"] = traced / plain - 1.0
    layers["trace.unattributed_ms"] = tracer.unattributed(windows) * 1000
    outcome["metrics"] = layers
    outcome["shares"] = span_shares(
        tracer, sum(end - start for start, end in windows)
    )
    tracer.write(
        OUT_DIR / f"trace-{workload}-s{seed}.json",
        {"workload": workload, "seed": seed, "windows": windows},
    )
    return outcome


def layer_metrics(tracer, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (self times in ms)."""
    self_s = tracer.self_times()
    counts = tracer.counts

    def ms(name: str) -> float:
        return self_s.get(name, 0.0) * 1000

    def rate(count: str, *spans: str) -> float:
        seconds = sum(self_s.get(name, 0.0) for name in spans)
        return counts.get(count, 0) / seconds if seconds else 0.0

    schedules = counts.get("price.cgc_schedules", 0)
    searches = ("search.greedy", "search.annealing", "search.exhaustive")
    values = {
        "frontend.lex_ms": ms("frontend.lex"),
        "frontend.tokens_per_s": rate("frontend.tokens", "frontend.lex"),
        "frontend.parse_ms": ms("frontend.parse"),
        "frontend.semantic_ms": ms("frontend.semantic"),
        "ir.lower_ms": ms("ir.lower"),
        "ir.verify_ms": ms("ir.verify"),
        "ir.verify_calls": counts.get("ir.verify_calls", 0),
        "ir.optimize_ms": ms("ir.optimize"),
        "ir.pass_applications": counts.get("ir.pass_applications", 0),
        "ir.blocks_out": counts.get("ir.blocks_out", 0),
        "interp.compile_ms": ms("interp.compile"),
        "interp.profile_ms": ms("interp.profile"),
        "interp.steps_per_s": rate("interp.steps", "interp.profile"),
        "analysis.workload_ms": ms("analysis.workload"),
        "analysis.kernels": counts.get("analysis.kernels", 0),
        "price.table_ms": ms("price.table"),
        "price.fpga_ms": ms("price.fpga"),
        "price.cgc_ms": ms("price.cgc"),
        "price.comm_ms": ms("price.comm"),
        "price.blocks": counts.get("price.blocks", 0),
        "price.cgc_schedules": schedules,
        "price.cgc_repeat_ratio": (
            counts.get("price.cgc_repeat_schedules", 0) / schedules
            if schedules else 0.0
        ),
        "search.greedy_ms": ms("search.greedy"),
        "search.annealing_ms": ms("search.annealing"),
        "search.exhaustive_ms": ms("search.exhaustive"),
        "search.configs_visited": counts.get("search.configs_visited", 0),
        "search.configs_per_s": rate("search.configs_visited", *searches),
    }
    values.update(extra)
    for name in load_spec_names("per_layer"):
        # A layer the workload never exercised did no work.
        values.setdefault(name, 0.0)
    return values


def span_shares(tracer, wall: float) -> dict[str, float]:
    """Self time per span name ÷ traced wall, largest first.  Spans of
    concurrent threads overlap, so on serve-mixed the shares can sum to
    more than 1."""
    shares = {name: s / wall for name, s in tracer.self_times().items()}
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def load_spec_names(kind: str) -> list[str]:
    return [entry["name"] for entry in load_spec()[kind]]


def select(metrics: dict[str, float], kind: str) -> dict[str, dict]:
    """Exactly the metrics BENCHMARK.json lists, with their units."""
    entries = load_spec()[kind]
    missing = [e["name"] for e in entries if e["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    return {e["name"]: metric(metrics[e["name"]], e["unit"]) for e in entries}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh interpreter."""
    summary: dict[str, dict] = {}
    status = 0
    for workload in WORKLOADS:
        for traced in (0, 1):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(traced),
            ]
            done = subprocess.run(
                command, capture_output=True, text=True, check=False
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = done.returncode
                continue
            last = done.stdout.strip().splitlines()[-1]
            summary[f"{workload}/trace={traced}"] = json.loads(last)
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    import_library()
    if args.trace:
        outcome = trace(args.workload, args.seed, seconds)
        metrics = select(outcome["metrics"], "per_layer")
    else:
        outcome = measure(args.workload, args.seed, seconds)
        metrics = select(outcome["metrics"], "end_to_end")
    for name, share in outcome.get("shares", {}).items():
        print(f"share of traced wall, {name:24s} {share:8.3f}")
    emit(
        args.workload,
        args.seed,
        bool(args.trace),
        metrics,
        outcome["attempted"],
        outcome["failed"],
        outcome["checks"],
        {"span_shares": outcome.get("shares", {}), "seconds": seconds},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
