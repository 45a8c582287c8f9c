"""Workload ``dse-grid``: price and search every (workload × platform) pair.

Seven fixed workloads (calibrated JPEG and OFDM, filterbank, viterbi,
and synthetic workloads of 48/64/96 blocks) cross twelve platforms
(A900/A1500/A5000 × 2/3 CGCs × 2x2/2x3 CGC geometry).  Each pair is
priced fresh through ``PackedCostTable.from_model(CostModel(...))`` and
swept with greedy, annealing and exact branch-and-bound at three
constraint fractions.  The workloads are built once at set-up; no
frontend work is timed.  The seed sets only the phase of a balanced
pair order, so every run prices and searches the same 84 pairs; each
pair runs ``repeats_for(seconds)`` times back to back and counts its
fastest time.
"""

from __future__ import annotations

import itertools
import random

from digests import load_expected, pair_digest
from harness import best_of, median, peak_rss_mb, percentile, repeats_for
from spans import interleaved

from repro.explore.space import PlatformSpec, WorkloadSpec
from repro.partition.costs import CostModel
from repro.partition.packed import PackedCostTable
from repro.search import AlgorithmSpec, make_partitioner

NAME = "dse-grid"
FRACTIONS = (0.9, 0.75, 0.5)
ALGORITHMS = (
    AlgorithmSpec.greedy(),
    AlgorithmSpec.annealing(),
    AlgorithmSpec.exhaustive(prune=True),
)
PLATFORMS = tuple(
    PlatformSpec(afpga=afpga, cgc_count=cgcs, rows=2, cols=cols)
    for afpga, cgcs, cols in itertools.product((900, 1500, 5000), (2, 3), (2, 3))
)
#: The same for every seed, so that a seed never changes what a run costs.
WORKLOADS = (
    WorkloadSpec.jpeg(),
    WorkloadSpec.ofdm(),
    WorkloadSpec.filterbank(),
    WorkloadSpec.viterbi(),
    WorkloadSpec.synthetic(48, seed=0),
    WorkloadSpec.synthetic(64, seed=0),
    WorkloadSpec.synthetic(96, seed=0),
)


def pair_key(workload: WorkloadSpec, platform: PlatformSpec) -> str:
    return f"{workload.label}@{platform.label}"


def pair_order(seed: int) -> list[tuple[WorkloadSpec, PlatformSpec]]:
    """Pair k is (workload (k + a) mod 7, platform (k + b) mod 12), with
    the offsets a, b drawn from the seed.  As 7 and 12 are coprime this
    visits all 84 pairs, and every stretch of consecutive pairs is
    balanced across workloads and platforms."""
    rng = random.Random(f"{NAME}:order:{seed}")
    a, b = rng.randrange(len(WORKLOADS)), rng.randrange(len(PLATFORMS))
    return [
        (WORKLOADS[(k + a) % len(WORKLOADS)], PLATFORMS[(k + b) % len(PLATFORMS)])
        for k in range(len(WORKLOADS) * len(PLATFORMS))
    ]


def explore_pair(workload, platform):
    """The measured unit: price one pair, then sweep every algorithm.

    Returns results[algorithm index][fraction index].
    """
    table = PackedCostTable.from_model(CostModel(workload, platform))
    initial = table.initial_cycles()
    constraints = [max(1, round(initial * f)) for f in FRACTIONS]
    results = []
    for spec in ALGORITHMS:
        partitioner = make_partitioner(
            spec, workload, platform, packed_table=table
        )
        results.append([partitioner.run(c) for c in constraints])
    return results


def exact_is_floor(results) -> bool:
    """The certified optimum is no worse than either heuristic."""
    greedy, annealing, exact = results
    return all(
        e.certified
        and e.final_cycles <= g.final_cycles
        and e.final_cycles <= a.final_cycles
        for g, a, e in zip(greedy, annealing, exact, strict=True)
    )


class Grid:
    def __init__(self, seed: int, expected: dict[str, str]) -> None:
        self.seed = seed
        self.expected = expected
        self.workloads = {spec: spec.build() for spec in WORKLOADS}
        self.platforms = {spec: spec.build() for spec in PLATFORMS}
        self.pairs = pair_order(seed)

    def warm_up(self) -> None:
        """One cheap pair, the same for every seed."""
        explore_pair(
            self.workloads[WorkloadSpec.ofdm()], self.platforms[PLATFORMS[0]]
        )

    def run_pairs(self, pairs, repeats: int = 1):
        """Each pair ``repeats`` times back to back.

        Returns (fastest seconds per pair, (key, digest, exact is floor)
        per pair).  Repeats that disagree get no digest, so they fail.
        """
        latencies: list[float] = []
        outcomes: list[tuple[str, str, bool]] = []
        for workload, platform in pairs:
            seconds, runs = best_of(
                repeats,
                lambda: explore_pair(
                    self.workloads[workload], self.platforms[platform]
                ),
            )
            latencies.append(seconds)
            digests = {pair_digest(results) for results in runs}
            outcomes.append(
                (
                    pair_key(workload, platform),
                    digests.pop() if len(digests) == 1 else "",
                    all(exact_is_floor(results) for results in runs),
                )
            )
        return latencies, outcomes

    def check(self, outcomes) -> tuple[int, dict[str, object]]:
        matches = [self.expected.get(key) == d for key, d, _ in outcomes]
        floors = [floor for _, _, floor in outcomes]
        failed = sum(1 for m, f in zip(matches, floors) if not (m and f))
        return failed, {
            "digests_match": all(matches),
            "digests_missing": sum(
                1 for key, _, _ in outcomes if key not in self.expected
            ),
            "exact_at_most_heuristics": all(floors),
        }


def set_up(seed: int) -> Grid:
    grid = Grid(seed, load_expected(NAME))
    grid.warm_up()
    return grid


def measure(grid: Grid, seconds: float) -> dict[str, object]:
    latencies, outcomes = grid.run_pairs(grid.pairs, repeats_for(seconds))
    rss_mb = peak_rss_mb()
    failed, checks = grid.check(outcomes)
    ms = [value * 1000 for value in latencies]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "checks": checks,
        "metrics": {
            "throughput_per_s": len(latencies) / sum(latencies),
            "p50_ms": median(ms),
            "peak_rss_mb": rss_mb,
        },
    }


def trace_pass(seed: int, seconds: float, tracer) -> dict[str, object]:
    """Each of the 84 pairs twice untraced, then once traced."""
    grid = set_up(seed)

    def run(pair):
        workload, platform = pair
        results = explore_pair(grid.workloads[workload], grid.platforms[platform])
        return (
            pair_key(workload, platform),
            pair_digest(results),
            exact_is_floor(results),
        )

    plain, traced, plain_s, windows = interleaved(
        tracer, grid.pairs, run, plain_repeats=2
    )
    failed, checks = grid.check(traced)
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
            # Over the 168 untraced samples: 16 lie beyond the 90th percentile.
            "dse.p90_ms": percentile([v * 1000 for v in plain_s], 0.9),
        },
    }
