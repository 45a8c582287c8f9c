"""Collect runs, measure their spread, and compare two sets by the bounds.

    python3 perfbench/compare.py collect --workload flow-minic --seeds 1-10 --out base.jsonl
    python3 perfbench/compare.py spread base.jsonl
    python3 perfbench/compare.py diff base.jsonl change.jsonl

``collect`` runs ``run.py`` once per seed, each in a fresh interpreter,
and appends one JSON line per run.  ``spread`` prints, per workload and
end-to-end metric, the median and the distance between the first and
third quartiles as a share of the median, flagging spreads beyond the
metric's bound.  ``diff`` flags every metric whose median got worse by
more than its bound; its exit status is 1 when any did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import BENCH_DIR, ROOT


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds(spec: dict) -> dict[str, tuple[float, str]]:
    """End-to-end metric -> (bound, better)."""
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def by_metric(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, over untraced runs."""
    table: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(entry["value"])
    return table


def unsteady(runs: list[dict], spec: dict) -> list[tuple[str, str, float]]:
    """(workload, metric, spread) for each spread beyond its bound;
    ``setup_s`` is exempt, as in the acceptance rule."""
    limits = bounds(spec)
    flagged = []
    for (workload, name), values in sorted(by_metric(runs).items()):
        if name in limits and name != "setup_s":
            share = spread(values)
            if share > limits[name][0]:
                flagged.append((workload, name, share))
    return flagged


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if better == "lower" else -change


def regressions(
    base_runs: list[dict], new_runs: list[dict], spec: dict
) -> list[tuple[str, str, float, float, float]]:
    """(workload, metric, base median, new median, worsening) for every
    end-to-end metric whose median worsened by more than its bound."""
    limits = bounds(spec)
    base = by_metric(base_runs)
    new = by_metric(new_runs)
    flagged = []
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        if name not in limits:
            continue
        bound, better = limits[name]
        before = statistics.median(base[key])
        after = statistics.median(new[key])
        worse = worsening(before, after, better)
        if worse > bound:
            flagged.append((workload, name, before, after, worse))
    return flagged


def read_runs(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def collect(workload: str, seeds: list[int], out: str, trace: int) -> int:
    spec = load_spec()
    status = 0
    with open(out, "a") as sink:
        for seed in seeds:
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
            ]
            done = subprocess.run(
                command, capture_output=True, text=True, check=False
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed, trace=trace)
            sink.write(json.dumps(result) + "\n")
            sink.flush()
            print(f"{workload} seed={seed} correct={result['correct']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", required=True, type=seed_range)
    run.add_argument("--out", required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    show = sub.add_parser("spread")
    show.add_argument("runs")
    diff = sub.add_parser("diff")
    diff.add_argument("base")
    diff.add_argument("new")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.command == "collect":
        return collect(args.workload, args.seeds, args.out, args.trace)
    if args.command == "spread":
        runs = [r for r in read_runs(args.runs) if not r.get("trace")]
        limits = bounds(spec)
        for (workload, name), values in sorted(by_metric(runs).items()):
            bound = limits.get(name, (float("nan"), ""))[0]
            share = spread(values) if len(values) > 1 else float("nan")
            mark = "  BEYOND BOUND" if share > bound and name != "setup_s" else ""
            print(
                f"{workload:12s} {name:18s} n={len(values):2d} "
                f"median={statistics.median(values):12.4f} "
                f"spread={share:7.4f} bound={bound:5.2f}"
                f" third={bound / 3:6.4f}{mark}"
            )
        return 1 if unsteady(runs, spec) else 0
    flagged = regressions(read_runs(args.base), read_runs(args.new), spec)
    for workload, name, before, after, worse in flagged:
        print(
            f"REGRESSION {workload} {name}: {before:.4f} -> {after:.4f} "
            f"({worse:+.1%} worse)"
        )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
