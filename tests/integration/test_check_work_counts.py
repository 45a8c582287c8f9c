"""The CI gate on a traced perfbench row's exact work counts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = ROOT / "benchmarks" / "work_counts.json"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_work_counts", ROOT / "scripts" / "check_work_counts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_row(tmp_path, workload, **overrides):
    """A traced seed-1 row of ``workload`` carrying the committed
    counts, with ``overrides`` applied (None drops a count)."""
    counts = json.loads(COMMITTED.read_text())[workload]["1"]
    metrics = {"flow.p95_ms": {"value": 12.5, "unit": "ms"}}
    for name, value in {**counts, **overrides}.items():
        if value is not None:
            metrics[name] = {"value": value, "unit": "count"}
    path = tmp_path / f"result-{workload}-s1-t1.json"
    path.write_text(
        json.dumps({"workload": workload, "seed": 1, "metrics": metrics})
    )
    return path


def flow_minic_row(tmp_path, **overrides):
    return traced_row(tmp_path, "flow-minic", **overrides)


def test_matching_row_passes(checker, tmp_path, capsys):
    assert checker.main([str(flow_minic_row(tmp_path))]) == 0
    assert "work counts match" in capsys.readouterr().out


def test_dse_grid_row_is_gated(checker, tmp_path, capsys):
    """dse-grid's seed-1 row carries its pricing and search counts;
    perfbench reports them as floats, which compare equal."""
    row = traced_row(
        tmp_path, "dse-grid", **{"search.configs_visited": 146001.0}
    )
    assert checker.main([str(row)]) == 0
    assert "work counts match, dse-grid seed 1" in capsys.readouterr().out
    moved = traced_row(tmp_path, "dse-grid", **{"price.blocks": 3301.0})
    assert checker.main([str(moved)]) == 1
    assert "price.blocks: 3301.0 (expected 3300)" in capsys.readouterr().out


def test_moved_count_fails_and_is_named(checker, tmp_path, capsys):
    row = flow_minic_row(tmp_path, **{"price.blocks": 5096})
    assert checker.main([str(row)]) == 1
    out = capsys.readouterr().out
    assert "price.blocks: 5096 (expected 5095)" in out
    assert "ir.verify_calls" not in out


def test_missing_count_fails_and_is_named(checker, tmp_path, capsys):
    row = flow_minic_row(tmp_path, **{"search.configs_visited": None})
    assert checker.main([str(row)]) == 1
    assert "search.configs_visited: missing" in capsys.readouterr().out


def test_row_without_committed_counts_fails(checker):
    row = {"workload": "flow-minic", "seed": 2, "metrics": {}}
    expected = json.loads(COMMITTED.read_text())
    assert checker.count_problems(row, expected) == [
        "no committed work counts for flow-minic seed 2"
    ]
