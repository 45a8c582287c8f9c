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


def flow_minic_row(tmp_path, **overrides):
    """A traced flow-minic seed-1 row carrying the committed counts,
    with ``overrides`` applied (None drops a count)."""
    counts = json.loads(COMMITTED.read_text())["flow-minic"]["1"]
    metrics = {"flow.p95_ms": {"value": 12.5, "unit": "ms"}}
    for name, value in {**counts, **overrides}.items():
        if value is not None:
            metrics[name] = {"value": value, "unit": "count"}
    path = tmp_path / "result-flow-minic-s1-t1.json"
    path.write_text(
        json.dumps(
            {"workload": "flow-minic", "seed": 1, "metrics": metrics}
        )
    )
    return path


def test_matching_row_passes(checker, tmp_path, capsys):
    assert checker.main([str(flow_minic_row(tmp_path))]) == 0
    assert "work counts match" in capsys.readouterr().out


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
