"""Search-algorithm bench: quality of the heuristics AND throughput of
the packed cost tables.

The claims below are asserted here and recorded in ``BENCH_search.json``
at the repo root (uploaded as a CI artifact):

**Quality**: on skewed workloads where the Eq. 1 weight order misleads a
budgeted greedy, ``annealing`` and ``multi_start`` strictly beat greedy
and recover the ``exhaustive`` optimum.

**Throughput**: greedy, multi-start and annealing evaluate
configurations at ≥ 10× the configs/second the committed pre-packed
baseline recorded (``COMMITTED_CONFIGS_PER_SECOND`` below, the numbers
shipped in ``BENCH_search.json`` before the packed tables landed).
Exhaustive search no longer enumerates, so its configs/second are
reported but not gated.

**Exact search**: the closed form certifies a 192-kernel table — far
past any enumeration — against the analytic Eq. 2 optimum and against
a dynamic-programming oracle's per-shape minimum cycles.

Timing methodology: pricing (block mapping) is warmed before the timer
starts — ``initial_cycles()`` prices every block — so configs/second
measures configuration *evaluation*, not DFG scheduling; each
measurement is the best of ``REPEATS`` fresh partitioners sharing one
injected table, which is exactly how the explore/suite layers run.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

from repro.partition import (
    ApplicationWorkload,
    BlockWorkload,
    CostModel,
    EngineConfig,
    PackedCostTable,
)
from repro.platform import paper_platform
from repro.search import AlgorithmSpec, front_of_results, make_partitioner
from repro.workloads import generate_dfg, make_profile, synthetic_application

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_search.json"

# The DP oracle lives with the other references in tests/oracles/.
sys.path.insert(0, str(BENCH_PATH.parent / "tests"))
from oracles.exact_search import shape_minima  # noqa: E402

REPEATS = 3

SPECS = (
    AlgorithmSpec.greedy(),
    AlgorithmSpec.exhaustive(),
    AlgorithmSpec.multi_start(restarts=16, seed=1),
    AlgorithmSpec.annealing(seed=1),
)

#: configs/second recorded in the committed BENCH_search.json *before*
#: the packed tables (object-model pricing, cold models) — the floor
#: the ≥ 10× acceptance claim is measured against.
COMMITTED_CONFIGS_PER_SECOND = {
    "skewed-handmade": {
        "greedy": 551,
        "exhaustive": 2060,
        "multi_start": 1090,
        "annealing": 1731,
    },
    "skewed-generated": {
        "greedy": 115,
        "exhaustive": 1411,
        "multi_start": 281,
        "annealing": 1248,
    },
}


def _block(bb_id, freq, weight, **kwargs):
    profile = make_profile(bb_id, freq, weight, **kwargs)
    return BlockWorkload(
        bb_id=bb_id,
        exec_freq=freq,
        dfg=generate_dfg(profile),
        comm_words_in=profile.live_in_words,
        comm_words_out=profile.live_out_words,
    )


def _skewed_handmade():
    """Three-kernel trap: the top-weight kernel saves ~2% of what each of
    the two lighter kernels saves (communication cancels its FPGA time),
    so a 2-move budget spent by weight order wastes a slot."""
    return ApplicationWorkload(
        name="skewed-handmade",
        blocks=[
            _block(1, 3000, 20, width=1.0, live=(55, 55)),
            _block(2, 900, 50, mul_fraction=0.5, live=(2, 1)),
            _block(3, 800, 48, mul_fraction=0.5, live=(2, 1)),
            _block(4, 50, 6),
        ],
    )


def _skewed_generated():
    """Same trap, grown statistically: heavy kernels with inflated
    communication on top of a synthetic base workload."""
    base = synthetic_application(
        10, seed=8, kernel_fraction=0.5, comm_intensity=0.1,
        name="skewed-generated",
    )
    blocks = list(base.blocks)
    blocks.append(_block(90, 2600, 24, width=1.0, live=(55, 55)))
    blocks.append(_block(91, 700, 52, mul_fraction=0.5, live=(2, 1)))
    blocks.append(_block(92, 600, 50, mul_fraction=0.5, live=(2, 1)))
    return ApplicationWorkload(name=base.name, blocks=blocks)


SCENARIOS = {
    "skewed-handmade": (_skewed_handmade, 2),
    "skewed-generated": (_skewed_generated, 2),
}


def _measure(spec, workload, platform, config_kwargs, table):
    """(partitioner after one run, best-of-REPEATS search seconds).

    Pricing is excluded: the injected table is priced before the timer
    starts; each repeat uses a fresh partitioner so no repeat replays
    another's cached search.
    """
    best_seconds = None
    partitioner = None
    for _ in range(REPEATS):
        partitioner = make_partitioner(
            spec,
            workload,
            platform,
            config=EngineConfig(**config_kwargs),
            packed_table=table,
        )
        partitioner.initial_cycles()
        started = time.perf_counter()
        partitioner.run(1)  # unreachable: minimize outright
        elapsed = time.perf_counter() - started
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return partitioner, best_seconds


def _configs_per_second(partitioner, seconds):
    if not seconds:
        return None
    return round(partitioner.visited_count / seconds)


def _run_scenario(workload, budget):
    platform = paper_platform(1500, 2)
    table = PackedCostTable.from_model(CostModel(workload, platform))
    config_kwargs = dict(stop_at_constraint=False, max_kernels_moved=budget)
    rows = {}
    fronts = []
    for spec in SPECS:
        packed, packed_seconds = _measure(
            spec, workload, platform, config_kwargs, table
        )
        result = packed.run(1)
        front = packed.pareto_front()
        fronts.append(front)
        rows[spec.name] = {
            "label": spec.label,
            "final_cycles": result.final_cycles,
            "initial_cycles": result.initial_cycles,
            "moved_bb_ids": list(result.moved_bb_ids),
            "reduction_percent": round(result.reduction_percent, 2),
            "visited_configurations": packed.visited_count,
            "pareto_front_size": len(front),
            "seconds": round(packed_seconds, 6),
            "configs_per_second": _configs_per_second(
                packed, packed_seconds
            ),
        }
    combined = front_of_results(fronts)
    return {
        "move_budget": budget,
        "algorithms": rows,
        "combined_front": [point.to_dict() for point in combined],
    }


def _run_exact_search_report():
    """The closed form on a 192-kernel table: the optimum against the
    analytic one, every shape's cycles against the DP oracle, and the
    median of five timed ``run()`` + ``pareto_front()`` passes on fresh
    partitioners (pricing excluded)."""
    workload = synthetic_application(
        240, seed=3, kernel_fraction=0.8, name="certify-192",
    )
    platform = paper_platform(1500, 2)
    table = PackedCostTable.from_model(CostModel(workload, platform))
    seconds = []
    for _ in range(5):
        partitioner = make_partitioner(
            AlgorithmSpec.exhaustive(), workload, platform,
            config=EngineConfig(stop_at_constraint=False),
            packed_table=table,
        )
        partitioner.initial_cycles()
        started = time.perf_counter()
        result = partitioner.run(1)  # unreachable: minimize outright
        front = partitioner.pareto_front()
        seconds.append(time.perf_counter() - started)
    # Eq. 2 is additive, so the unconstrained optimum is analytically
    # certain: initial plus every negative per-kernel delta.
    negative = [i for i, delta in enumerate(table.move_delta) if delta < 0]
    analytic_ticks = table.initial_ticks + sum(
        table.move_delta[i] for i in negative
    )
    oracle = shape_minima(table)
    minima: dict[tuple[int, int], int] = {}
    for config in partitioner.visited:
        shape = (config.moved_kernel_count, config.cgc_rows_used)
        cycles = minima.get(shape, config.total_cycles)
        minima[shape] = min(cycles, config.total_cycles)
    return {
        "workload": workload.name,
        "kernels": len(table),
        "subset_space": f"2^{len(table)}",
        "median_seconds": round(statistics.median(seconds), 6),
        "visited_configurations": partitioner.visited_count,
        "pareto_front_size": len(front),
        "final_cycles": result.final_cycles,
        "analytically_certified": (
            result.final_cycles == table.ticks_to_cycles(analytic_ticks)
            and tuple(sorted(result.moved_bb_ids))
            == table.bb_ids_of(sum(1 << i for i in negative))
        ),
        "shapes": len(oracle),
        "shape_minima_match_dp_oracle": minima == oracle,
    }


@pytest.fixture(scope="module")
def report():
    scenarios = {
        name: _run_scenario(factory(), budget)
        for name, (factory, budget) in SCENARIOS.items()
    }
    return {
        "bench": "search_algorithms",
        "scenarios": scenarios,
        "exact_search": _run_exact_search_report(),
    }


# ----------------------------------------------------------------------
# Quality
# ----------------------------------------------------------------------
def test_exhaustive_lower_bounds_everything(report):
    for name, scenario in report["scenarios"].items():
        rows = scenario["algorithms"]
        optimum = rows["exhaustive"]["final_cycles"]
        for algorithm, row in rows.items():
            assert row["final_cycles"] >= optimum, (name, algorithm)


def test_heuristics_beat_greedy_on_skewed_workloads(report, capsys):
    """Annealing AND multi-start find configurations budgeted greedy
    misses, on every skewed scenario."""
    with capsys.disabled():
        print()
        for name, scenario in report["scenarios"].items():
            rows = scenario["algorithms"]
            print(
                f"  {name} (budget {scenario['move_budget']}): "
                + ", ".join(
                    f"{algorithm} {row['final_cycles']}"
                    for algorithm, row in rows.items()
                )
            )
    for name, scenario in report["scenarios"].items():
        rows = scenario["algorithms"]
        greedy = rows["greedy"]["final_cycles"]
        assert rows["annealing"]["final_cycles"] < greedy, name
        assert rows["multi_start"]["final_cycles"] < greedy, name
        # The best heuristic reaches the enumerated optimum.
        assert (
            min(
                rows["annealing"]["final_cycles"],
                rows["multi_start"]["final_cycles"],
            )
            == rows["exhaustive"]["final_cycles"]
        ), name


def test_no_algorithm_regresses_from_all_fpga(report):
    for scenario in report["scenarios"].values():
        for row in scenario["algorithms"].values():
            assert row["final_cycles"] <= row["initial_cycles"]


def test_combined_front_spans_tradeoffs(report):
    for scenario in report["scenarios"].values():
        front = scenario["combined_front"]
        assert front
        # The all-FPGA corner (0 moves) is always non-dominated.
        assert any(p["moved_kernel_count"] == 0 for p in front)


# ----------------------------------------------------------------------
# Throughput
# ----------------------------------------------------------------------
def test_packed_beats_committed_baseline_by_10x(report, capsys):
    """Greedy, multi-start and annealing on every skewed scenario
    evaluate ≥ 10× the configs/second the committed pre-packed
    BENCH_search.json shipped.  The exhaustive rows are printed only:
    the closed form visits one configuration per shape, so its rate
    measures nothing the floor was about."""
    with capsys.disabled():
        print()
        for name, scenario in report["scenarios"].items():
            for algorithm, row in scenario["algorithms"].items():
                committed = COMMITTED_CONFIGS_PER_SECOND[name][algorithm]
                print(
                    f"  {name}/{algorithm}: {row['configs_per_second']:,} "
                    f"cfg/s packed vs {committed:,} committed "
                    f"({row['configs_per_second'] / committed:.0f}x)"
                )
    for name, scenario in report["scenarios"].items():
        for algorithm, row in scenario["algorithms"].items():
            if algorithm == "exhaustive":
                continue
            committed = COMMITTED_CONFIGS_PER_SECOND[name][algorithm]
            assert row["configs_per_second"] >= 10 * committed, (
                name, algorithm, row["configs_per_second"], committed,
            )


def test_closed_form_certifies_192_kernels(report, capsys):
    """A 2^192 subset space: the optimum is the analytic one, every
    (moved, rows) shape's cycles are the DP oracle's, and the optimum
    plus the Pareto front take well under 0.1 s."""
    exact = report["exact_search"]
    with capsys.disabled():
        print(
            f"\n  certify-192: {exact['subset_space']} space, "
            f"{exact['shapes']} shapes, optimum and front in "
            f"{exact['median_seconds'] * 1000:.1f} ms (median of 5)"
        )
    assert exact["kernels"] >= 192
    assert exact["analytically_certified"]
    assert exact["shape_minima_match_dp_oracle"]
    assert exact["median_seconds"] < 0.1


def test_write_bench_json(report):
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    loaded = json.loads(BENCH_PATH.read_text())
    for name, scenario in loaded["scenarios"].items():
        rows = scenario["algorithms"]
        assert rows["annealing"]["final_cycles"] < rows["greedy"]["final_cycles"]
        for algorithm, row in rows.items():
            if algorithm == "exhaustive":
                continue
            committed = COMMITTED_CONFIGS_PER_SECOND[name][algorithm]
            assert row["configs_per_second"] >= 10 * committed
    assert loaded["exact_search"]["analytically_certified"]
    assert loaded["exact_search"]["shape_minima_match_dp_oracle"]
