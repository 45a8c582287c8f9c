"""What the entry points load, as a Markdown table.

    python scripts/footprint.py >> "$GITHUB_STEP_SUMMARY"

Each entry point runs in a fresh interpreter with this checkout's
``src`` first on the path.  A row gives the modules in ``sys.modules``
when it ends, the wall time of the process, and whether numpy, sqlite3
or multiprocessing loaded.  Informational; the import budgets in
``tests/integration/test_api_surface.py`` (which run entry points
through :func:`probe`) are the gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(*argv: str) -> str:
    """The code that runs ``python -m repro *argv`` (through runpy)."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    if stop.code:\n"
        "        raise\n"
    )


#: The ``python -m repro`` runs among the entry points.
CLI_RUNS = (
    ("partition", "--workload", "ofdm", "--fraction", "0.5"),
    ("partition", "--workload", "ofdm-measured", "--fraction", "0.5"),
)
#: Entry point -> the code that runs it.
ENTRY_POINTS = {
    "import repro": "import repro",
    **{"python -m repro " + " ".join(argv): _cli(*argv) for argv in CLI_RUNS},
}
WATCHED = ("numpy", "sqlite3", "multiprocessing")


def probe(code: str) -> tuple[set[str], float]:
    """The modules a fresh interpreter holds after running ``code``, and
    the wall seconds of that process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(done.stderr)
    return set(json.loads(done.stdout.splitlines()[-1])), seconds


def main() -> int:
    print("| entry point | modules | wall s | " + " | ".join(WATCHED) + " |")
    print("|---|---:|---:|" + "---|" * len(WATCHED))
    for label, code in ENTRY_POINTS.items():
        modules, seconds = probe(code)
        flags = " | ".join("yes" if m in modules else "no" for m in WATCHED)
        print(f"| `{label}` | {len(modules)} | {seconds:.2f} | {flags} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
