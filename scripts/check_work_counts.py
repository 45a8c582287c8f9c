"""Gate a traced perfbench row on its committed work counts.

The work counters of a traced ``perfbench/run.py`` row (verify calls,
pass applications, priced blocks, configurations visited, ...) repeat
exactly for one (workload, seed) on any host, at any commit that does
the same work; only the times vary.  ``benchmarks/work_counts.json``
holds the expected counts per workload and seed.  This script exits 1
and names every expected count that moved or is missing from the row.
A change that alters the work updates that file in the same commit.

Usage::

    python3 perfbench/run.py --workload flow-minic --seed 1 --trace 1
    python scripts/check_work_counts.py [ROW_JSON]

``ROW_JSON`` defaults to ``perfbench/out/result-flow-minic-s1-t1.json``,
the row the traced run above writes; a traced ``dse-grid`` run writes
``perfbench/out/result-dse-grid-s1-t1.json``.

Standard library only, so it runs before (or without) installing the
package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ROW = ROOT / "perfbench" / "out" / "result-flow-minic-s1-t1.json"
EXPECTED = ROOT / "benchmarks" / "work_counts.json"


def count_problems(row: dict, expected: dict) -> list[str]:
    """One line per expected count of the row's (workload, seed) that
    moved or is missing; empty when every count matches."""
    workload, seed = row["workload"], str(row["seed"])
    counts = expected.get(workload, {}).get(seed)
    if counts is None:
        return [f"no committed work counts for {workload} seed {seed}"]
    metrics = row["metrics"]
    problems = []
    for name, want in counts.items():
        if name not in metrics:
            problems.append(f"{name}: missing (expected {want})")
        elif metrics[name]["value"] != want:
            got = metrics[name]["value"]
            problems.append(f"{name}: {got} (expected {want})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("row", nargs="?", type=Path, default=DEFAULT_ROW)
    args = parser.parse_args(argv)
    row = json.loads(args.row.read_text())
    problems = count_problems(row, json.loads(EXPECTED.read_text()))
    label = f"{row['workload']} seed {row['seed']}"
    for problem in problems:
        print(f"work count moved, {label}: {problem}")
    if problems:
        print(
            f"update {EXPECTED.relative_to(ROOT)} in the same commit if "
            "the work changed on purpose"
        )
        return 1
    print(f"work counts match, {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
