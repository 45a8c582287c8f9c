"""Shared plumbing of the benchmark: statistics, environment, output.

Nothing here imports :mod:`repro`; ``run.py`` puts ``src/`` on the path
only after it has isolated the environment, and the workload modules
import the library themselves.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Environment switches that change what the library does; recorded with
#: every result so two result files are only compared like with like.
RECORDED_ENV = ("REPRO_TELEMETRY", "REPRO_IR_SANITIZE")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


#: Rough time of one run over the units of a closed-loop workload (202
#: programs, or 84 pairs, at their fastest) on a 2-core x86 box.
PASS_SECONDS = 8.5


def repeats_for(seconds: float) -> int:
    """How many times each unit runs back to back to fill about
    ``seconds``.  The count depends on the requested time only, never on
    how fast the host is, so every run does the same work."""
    return max(1, round(seconds / PASS_SECONDS))


def best_of(repeats: int, run):
    """Run ``run()`` ``repeats`` times back to back; returns (the fastest
    time, every output).  A slow moment of a shared host hits one repeat
    of a unit far more often than all of them, so the fastest time of
    adjacent repeats is much steadier across runs than any single one."""
    best, outputs = math.inf, []
    for _ in range(repeats):
        start = time.perf_counter()
        outputs.append(run())
        best = min(best, time.perf_counter() - start)
    return best, outputs


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict[str, object]:
    """What a result depends on besides the code and the seed."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
    }


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def emit(
    workload: str,
    seed: int,
    trace: bool,
    metrics: dict[str, dict[str, object]],
    attempted: int,
    failed: int,
    checks: dict[str, object],
    extra: dict[str, object] | None = None,
) -> dict[str, object]:
    """Print the human-readable report, save the record, print the JSON.

    The JSON object is the last line of standard output; everything the
    contract does not allow in it (environment, check details, layer
    shares) goes to the lines above and to ``out/``.
    """
    correct = failed == 0 and all(
        value is True for value in checks.values() if isinstance(value, bool)
    )
    env = environment()
    print(
        f"# {workload} seed={seed} trace={int(trace)} python={env['python']} "
        f"nproc={env['nproc']} commit={str(env['commit'])[:12]} "
        f"env={json.dumps(env['env'], sort_keys=True)}"
    )
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:>14.4f} {entry['unit']}")
    failed_ratio = failed / attempted if attempted else 1.0
    print(
        f"{'failed_ratio':32s} {failed_ratio:>14.4f} ratio "
        f"({failed} of {attempted})"
    )
    for name, value in checks.items():
        print(f"check {name}: {value}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "checks": checks,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **(extra or {}),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{workload}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return result
