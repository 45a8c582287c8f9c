"""Output digests: what the partitioner returned, hashed, and committed.

``digests.json`` maps each item key of ``flow-minic`` and each pair key
of ``dse-grid`` to a short hash of its results.  A run compares every
result it produces against this table, so a change that moves any cycle
count or moved kernel on any seed shows as a failed operation.

Regenerate (only when a change moves results on purpose)::

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def result_digest(result) -> str:
    """(final_cycles, moved_bb_ids) of one partitioning result."""
    return _hash(f"{result.final_cycles}:{tuple(result.moved_bb_ids)}")


def pair_digest(results) -> str:
    """Every (final_cycles, moved_bb_ids) of a pair's algorithm sweep."""
    return _hash(
        ";".join(
            f"{r.final_cycles}:{tuple(r.moved_bb_ids)}"
            for row in results
            for r in row
        )
    )


def load_expected(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS.read_text())[workload]


def regenerate() -> dict[str, dict[str, str]]:
    """Digest every key the workloads can draw (a few minutes)."""
    import dse_grid
    import flow_minic

    platform = flow_minic.PLATFORM.build()
    flow = {}
    for key in flow_minic.all_keys():
        item = (key, flow_minic.materialize(key))
        _, _, result = flow_minic.source_to_partition(item, platform)
        flow[key] = result_digest(result)
    grid = {}
    for spec in dse_grid.WORKLOADS:
        workload = spec.build()
        for platform_spec in dse_grid.PLATFORMS:
            results = dse_grid.explore_pair(workload, platform_spec.build())
            grid[dse_grid.pair_key(spec, platform_spec)] = pair_digest(results)
    return {"flow-minic": flow, "dse-grid": grid}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    table = regenerate()
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(
        f"wrote {sum(len(v) for v in table.values())} digests to {DIGESTS}"
    )
