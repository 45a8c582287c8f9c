"""Workload ``flow-minic``: source-to-partition, one program at a time.

Each item is a mini-C source taken through the whole flow, closed loop:
``cdfg_from_source`` → ``optimize_cdfg`` → ``profile_cdfg`` (a fresh
``ProfileCache``) → ``workload_from_cdfg`` → packed table on
A1500-2x(2x2) → greedy at half the all-FPGA cycles.  The items are the
paper's JPEG and OFDM sources followed by ``PROGRAMS`` generated programs
whose generator seed, mixer count and round count are all drawn from the
workload seed.  Each item runs ``repeats_for(seconds)`` times back to
back and counts its fastest time, so every run does the same work.
"""

from __future__ import annotations

import random

from harness import best_of, median, peak_rss_mb, percentile, repeats_for
from digests import load_expected, result_digest
from spans import interleaved

from repro.analysis import dynamic_analysis
from repro.explore.space import PlatformSpec
from repro.interp.cache import ProfileCache
from repro.interp.interpreter import Interpreter
from repro.interp.profiler import BlockProfiler
from repro.ir import cdfg as cdfg_module
from repro.ir import passes
from repro.partition import workload as workload_module
from repro.partition.costs import CostModel
from repro.partition.packed import PackedCostTable
from repro.search import AlgorithmSpec, make_partitioner
from repro.workloads import jpeg_source, ofdm_source, random_bits, test_image
from repro.workloads.synthetic import minic_input, synthetic_program_source

NAME = "flow-minic"
PROGRAMS = 200
#: Generator seeds come from range(KEY_SEEDS); with the mixer and round
#: ranges this bounds the program space the committed digests cover.
KEY_SEEDS = 64
MIXERS = (2, 8)
ROUNDS = (2, 6)
FRACTION = 0.5
PLATFORM = PlatformSpec(afpga=1500, cgc_count=2, rows=2, cols=2)
#: Every WALKER_EVERY-th item, counted from the second (so never JPEG:
#: ~1 s per walker run), is re-profiled under the walker interpreter
#: after timing.
WALKER_EVERY = 20


def all_keys() -> list[str]:
    """Every item key the committed digests must cover."""
    return ["jpeg", "ofdm"] + [
        f"{s}:{m}:{r}"
        for s in range(KEY_SEEDS)
        for m in range(MIXERS[0], MIXERS[1] + 1)
        for r in range(ROUNDS[0], ROUNDS[1] + 1)
    ]


def item_keys(seed: int) -> list[str]:
    rng = random.Random(f"{NAME}:{seed}")
    keys = ["jpeg", "ofdm"]
    for _ in range(PROGRAMS):
        keys.append(
            f"{rng.randrange(KEY_SEEDS)}:{rng.randint(*MIXERS)}:"
            f"{rng.randint(*ROUNDS)}"
        )
    return keys


def materialize(key: str) -> tuple[str, str, str, tuple]:
    """(source, filename, entry, args) of one item; args are lists, which
    the interpreter copies, so an item can run any number of times."""
    if key == "jpeg":
        pixels = [int(p) for p in test_image(1994).ravel()]
        return jpeg_source(), "jpeg_enc.c", "encode_image", (pixels,)
    if key == "ofdm":
        bits = [int(b) for b in random_bits(256, seed=2004)]
        return ofdm_source(), "ofdm_tx.c", "ofdm_symbol", (
            bits, [0] * 80, [0] * 80,
        )
    seed, mixers, rounds = (int(part) for part in key.split(":"))
    source = synthetic_program_source(seed, mixers, rounds)
    return source, f"minic_{seed}_{mixers}_{rounds}.c", "entry", (
        minic_input(seed),
    )


def make_inputs(seed: int) -> list[tuple[str, tuple]]:
    return [(key, materialize(key)) for key in item_keys(seed)]


def source_to_partition(item, platform):
    """The measured unit: one source through every layer."""
    key, (source, filename, entry, args) = item
    cdfg = cdfg_module.cdfg_from_source(source, filename)
    passes.optimize_cdfg(cdfg)
    profile = dynamic_analysis.profile_cdfg(
        cdfg, entry, *args, cache=ProfileCache()
    )
    workload = workload_module.workload_from_cdfg(cdfg, profile, name=key)
    table = PackedCostTable.from_model(CostModel(workload, platform))
    result = make_partitioner(
        AlgorithmSpec.greedy(), workload, platform, packed_table=table
    ).run(max(1, round(table.initial_cycles() * FRACTION)))
    return cdfg, profile, result


class Flow:
    def __init__(self, seed: int, expected: dict[str, str]) -> None:
        self.seed = seed
        self.expected = expected
        self.platform = PLATFORM.build()
        self.items = make_inputs(seed)

    def warm_up(self) -> None:
        for item in self.items[:3]:
            source_to_partition(item, self.platform)

    def run_items(self, repeats: int = 1):
        """Each item ``repeats`` times back to back.

        Returns (fastest seconds per item, (key, digest) per repeat,
        walker samples).
        """
        latencies: list[float] = []
        digests: list[tuple[str, str]] = []
        samples = []
        for index, item in enumerate(self.items):
            seconds, runs = best_of(
                repeats, lambda: source_to_partition(item, self.platform)
            )
            latencies.append(seconds)
            digests.extend((item[0], result_digest(run[2])) for run in runs)
            if index % WALKER_EVERY == 1:
                samples.append((item, *runs[0][:2]))
        return latencies, digests, samples

    def check(self, digests, samples) -> tuple[int, dict[str, object]]:
        """Failures among the items run, plus the named checks."""
        failed = sum(1 for key, d in digests if self.expected.get(key) != d)
        digests_ok = failed == 0
        unknown = sum(1 for key, _ in digests if key not in self.expected)
        walker_ok = True
        for item, cdfg, profile in samples:
            _, (_, _, entry, args) = item
            profiler = BlockProfiler()
            Interpreter(cdfg, profiler, mode="walker").run(entry, *args)
            if profiler.frequencies() != profile.frequencies:
                walker_ok = False
                failed += 1
        return failed, {
            "digests_match": digests_ok,
            "digests_missing": unknown,
            "walker_samples": len(samples),
            "walker_matches_compiled": walker_ok,
        }


def set_up(seed: int) -> Flow:
    flow = Flow(seed, load_expected(NAME))
    flow.warm_up()
    return flow


def measure(flow: Flow, seconds: float) -> dict[str, object]:
    latencies, digests, samples = flow.run_items(repeats_for(seconds))
    rss_mb = peak_rss_mb()
    failed, checks = flow.check(digests, samples)
    ms = [value * 1000 for value in latencies]
    return {
        "attempted": len(digests),
        "failed": failed,
        "checks": checks,
        "metrics": {
            "throughput_per_s": len(latencies) / sum(latencies),
            "p50_ms": median(ms),
            "peak_rss_mb": rss_mb,
        },
    }


def trace_pass(seed: int, seconds: float, tracer) -> dict[str, object]:
    """Every item twice untraced, then once traced."""
    flow = set_up(seed)

    def run(item):
        return item[0], result_digest(source_to_partition(item, flow.platform)[2])

    plain, traced, plain_s, windows = interleaved(
        tracer, flow.items, run, plain_repeats=2
    )
    failed, checks = flow.check(traced, [])
    checks["traced_equals_untraced"] = traced == plain
    if traced != plain:
        failed += 1
    return {
        "attempted": len(traced),
        "failed": failed,
        "checks": checks,
        "windows": windows,
        "walls": (
            sum(plain_s) / 2, sum(end - start for start, end in windows)
        ),
        "layers": {
            "flow.p95_ms": percentile([v * 1000 for v in plain_s], 0.95),
        },
    }
