"""Results must not depend on the process's hash seed.

Enum members hash by identity, so the iteration order of every set or
dict keyed on IR enums (or on operands holding them) changes from one
process to the next, as it does for strings under ``PYTHONHASHSEED``.
Source → ``optimize_cdfg`` → profile → greedy runs in two fresh
interpreters with different hash seeds and must agree on the optimized
IR, the block frequencies and the partition.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

FLOW = r"""
import json

from repro.analysis.dynamic_analysis import profile_cdfg
from repro.explore.space import PlatformSpec
from repro.interp.cache import ProfileCache
from repro.ir import cdfg_from_source
from repro.ir.passes import optimize_cdfg
from repro.partition.costs import CostModel
from repro.partition.packed import PackedCostTable
from repro.partition.workload import workload_from_cdfg
from repro.search import AlgorithmSpec, make_partitioner
from repro.workloads import (
    jpeg_source, minic_input, ofdm_source, random_bits,
    synthetic_program_source, test_image,
)

platform = PlatformSpec(afpga=1500, cgc_count=2, rows=2, cols=2).build()
items = [
    ("jpeg", jpeg_source(), "encode_image",
     ([int(p) for p in test_image(1994).ravel()],)),
    ("ofdm", ofdm_source(), "ofdm_symbol",
     ([int(b) for b in random_bits(256, seed=2004)], [0] * 80, [0] * 80)),
] + [
    (f"minic{seed}", synthetic_program_source(seed, 2 + seed, 2 + seed % 5),
     "entry", (minic_input(seed),))
    for seed in range(6)
]
out = {}
for name, source, entry, args in items:
    cdfg = cdfg_from_source(source, f"{name}.c")
    optimize_cdfg(cdfg)
    profile = profile_cdfg(cdfg, entry, *args, cache=ProfileCache())
    workload = workload_from_cdfg(cdfg, profile, name=name)
    table = PackedCostTable.from_model(CostModel(workload, platform))
    result = make_partitioner(
        AlgorithmSpec.greedy(), workload, platform, packed_table=table
    ).run(max(1, round(table.initial_cycles() * 0.5)))
    out[name] = {
        "cdfg": str(cdfg),
        "frequencies": sorted(profile.frequencies.items()),
        "final_cycles": result.final_cycles,
        "moved_bb_ids": result.moved_bb_ids,
    }
print(json.dumps(out))
"""


def test_flow_results_do_not_depend_on_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", FLOW],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    results = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 0, stderr
        results.append(json.loads(stdout))
    assert len(results[0]) == 8
    for name, first in results[0].items():
        assert results[1][name] == first, name
