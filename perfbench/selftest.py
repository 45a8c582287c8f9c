"""Self-tests of the benchmark itself (not collected by the repo's suite).

    python3 -m pytest perfbench/selftest.py -q

They check that inputs and output digests follow the seed, that the
comparison trips each bound on doctored numbers, that a traced run
returns exactly what an untraced run returns and leaves no shim behind,
and that ``BENCHMARK.json`` keeps to the shape the runner relies on.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import compare  # noqa: E402
import digests  # noqa: E402
import dse_grid  # noqa: E402
import flow_minic  # noqa: E402
import run  # noqa: E402
import serve_mixed  # noqa: E402
from spans import Tracer, layer_shims  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def test_same_seed_gives_same_inputs():
    assert flow_minic.make_inputs(3) == flow_minic.make_inputs(3)
    assert dse_grid.pair_order(3) == dse_grid.pair_order(3)
    assert serve_mixed.make_schedule(3, 6) == serve_mixed.make_schedule(3, 6)


def test_other_seed_gives_other_inputs():
    assert flow_minic.item_keys(3) != flow_minic.item_keys(4)
    assert dse_grid.pair_order(3) != dse_grid.pair_order(4)
    assert serve_mixed.make_schedule(3, 6) != serve_mixed.make_schedule(4, 6)


def test_seed_moves_only_the_dse_pair_order():
    assert set(dse_grid.pair_order(3)) == set(dse_grid.pair_order(4))
    assert len(set(dse_grid.pair_order(3))) == 84


def test_same_seed_gives_same_output_digests():
    expected = digests.load_expected("flow-minic")
    platform = flow_minic.PLATFORM.build()
    for item in flow_minic.make_inputs(5)[1:4]:
        first = digests.result_digest(
            flow_minic.source_to_partition(item, platform)[2]
        )
        second = digests.result_digest(
            flow_minic.source_to_partition(item, platform)[2]
        )
        assert first == second == expected[item[0]]
    grid = dse_grid.Grid(5, digests.load_expected("dse-grid"))
    pairs = grid.pairs[:2]
    _, first = grid.run_pairs(pairs, repeats=2)
    _, second = grid.run_pairs(pairs)
    assert first == second
    assert grid.check(first)[0] == 0


def test_committed_digests_cover_every_drawable_key():
    flow = digests.load_expected("flow-minic")
    assert set(flow) == set(flow_minic.all_keys())
    grid = digests.load_expected("dse-grid")
    assert set(grid) == {
        dse_grid.pair_key(w, p)
        for w in dse_grid.WORKLOADS
        for p in dse_grid.PLATFORMS
    }


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
def _runs(workload: str, values: dict[str, float], jitter: float = 0.0):
    return [
        {
            "workload": workload,
            "metrics": {
                name: {"value": value * (1 + jitter * ((i % 3) - 1))}
                for name, value in values.items()
            },
        }
        for i in range(10)
    ]


def _doctor(values: dict[str, float], name: str, share: float) -> dict:
    """Move one metric ``share`` of its value in its worse direction."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}[name]
    sign = 1 if better == "lower" else -1
    return {**values, name: values[name] * (1 + sign * share)}


BASE = {m["name"]: 100.0 for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("entry", SPEC["end_to_end"], ids=lambda e: e["name"])
def test_doctored_number_beyond_bound_is_a_regression(entry):
    name, bound = entry["name"], entry["bound"]
    base = _runs("w", BASE, jitter=0.01)
    worse = _runs("w", _doctor(BASE, name, bound + 0.02), jitter=0.01)
    flagged = compare.regressions(base, worse, SPEC)
    assert [(w, n) for w, n, *_ in flagged] == [("w", name)]


@pytest.mark.parametrize("entry", SPEC["end_to_end"], ids=lambda e: e["name"])
def test_doctored_number_within_bound_passes(entry):
    name, bound = entry["name"], entry["bound"]
    base = _runs("w", BASE, jitter=0.01)
    slightly = _runs("w", _doctor(BASE, name, bound - 0.02), jitter=0.01)
    assert compare.regressions(base, slightly, SPEC) == []


@pytest.mark.parametrize(
    "entry",
    [e for e in SPEC["end_to_end"] if e["name"] != "setup_s"],
    ids=lambda e: e["name"],
)
def test_doctored_spread_beyond_bound_is_unsteady(entry):
    name, bound = entry["name"], entry["bound"]
    runs = _runs("w", BASE, jitter=0.001)
    for i, run in enumerate(runs):
        run["metrics"][name]["value"] = 100.0 * (1 + bound * (i - 4.5) / 3)
    flagged = compare.unsteady(runs, SPEC)
    assert [(w, n) for w, n, _ in flagged] == [("w", name)]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _originals():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in layer_shims()]


def test_traced_results_equal_untraced_and_no_shim_remains():
    originals = _originals()
    platform = flow_minic.PLATFORM.build()
    items = flow_minic.make_inputs(2)[:4]
    plain = [flow_minic.source_to_partition(i, platform)[2] for i in items]
    grid = dse_grid.Grid(2, {})
    plain_grid = grid.run_pairs(grid.pairs[:2])[1]
    tracer = Tracer()
    with tracer.installed():
        assert any(vars(o)[a] is not f for o, a, f in originals)
        traced = [flow_minic.source_to_partition(i, platform)[2] for i in items]
        traced_grid = grid.run_pairs(grid.pairs[:2])[1]
    assert traced == plain
    assert traced_grid == plain_grid
    assert all(vars(o)[a] is f for o, a, f in originals)
    names = {span[1] for span in tracer.spans}
    for layer in ("frontend.lex", "ir.verify", "interp.profile",
                  "analysis.workload", "price.cgc", "search.greedy",
                  "search.exhaustive"):
        assert layer in names
    assert tracer.counts["ir.verify_calls"] > 0


def test_search_visits_are_counted_once():
    grid = dse_grid.Grid(2, {})
    workload, platform = (
        grid.workloads[dse_grid.WORKLOADS[1]], grid.platforms[dse_grid.PLATFORMS[0]]
    )
    table = dse_grid.PackedCostTable.from_model(
        dse_grid.CostModel(workload, platform)
    )
    partitioner = dse_grid.make_partitioner(
        dse_grid.AlgorithmSpec.greedy(), workload, platform, packed_table=table
    )
    tracer = Tracer()
    with tracer.installed():
        partitioner.run(max(1, table.initial_cycles() // 2))
    assert partitioner.visited_count > 0
    assert tracer.counts["search.configs_visited"] == partitioner.visited_count


def test_shims_are_removed_when_the_run_raises():
    originals = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert all(vars(o)[a] is f for o, a, f in originals)


def test_self_time_subtracts_child_cover():
    tracer = Tracer()
    tracer.spans = [
        (1, "outer", 0.0, 10.0, 0, 1, None),
        (2, "inner", 2.0, 5.0, 1, 1, None),
        (3, "inner", 4.0, 6.0, 1, 1, None),
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 5.0}
    assert tracer.unattributed([(-2.0, 12.0)]) == 4.0


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keeps_its_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and UNIT.match(entry["unit"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert UNIT.match(entry["unit"])
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == [
        flow_minic.NAME, serve_mixed.NAME,
    ]
    assert all(w["name"] in run.MODULES for w in SPEC["workloads"])
