"""Tests for the ``python -m repro suite`` subcommands."""

import csv
import json

from repro.__main__ import main
from repro.suite import read_run_json

FAST = ["synth-small", "viterbi-greedy"]


def run_cli(*argv):
    return main(list(argv))


class TestSuiteList:
    def test_lists_registry(self, capsys):
        assert run_cli("suite", "list") == 0
        out = capsys.readouterr().out
        assert "ofdm-greedy" in out
        assert "viterbi-greedy" in out
        assert "scenario(s)" in out

    def test_tag_filter(self, capsys):
        assert run_cli("suite", "list", "--tag", "new-workload") == 0
        out = capsys.readouterr().out
        assert "filterbank-greedy" in out
        assert "ofdm-greedy" not in out

    def test_lists_recorded_runs(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        run_cli(
            "suite", "run", "--scenarios", "synth-small",
            "--db", db, "--label", "first",
        )
        capsys.readouterr()
        assert run_cli("suite", "list", "--db", db) == 0
        out = capsys.readouterr().out
        assert "run 1 [first]" in out

    def test_empty_store_listing(self, capsys, tmp_path):
        db = str(tmp_path / "empty.sqlite")
        assert run_cli("suite", "list", "--db", db) == 0
        assert "no runs recorded" in capsys.readouterr().out


class TestSuiteRun:
    def test_run_persists_and_exports(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        json_path = tmp_path / "run.json"
        csv_path = tmp_path / "run.csv"
        code = run_cli(
            "suite", "run", "--scenarios", *FAST,
            "--db", db, "--label", "nightly",
            "--json", str(json_path), "--csv", str(csv_path),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded as run 1" in out
        loaded = read_run_json(json_path)
        assert loaded.scenario_names() == FAST
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["scenario"] for row in rows] == FAST

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code = run_cli("suite", "run", "--scenarios", "nope")
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_unmatched_tag_fails_cleanly(self, capsys):
        code = run_cli("suite", "run", "--tag", "no-such-tag")
        assert code == 2
        assert "no scenarios selected" in capsys.readouterr().err

    def test_bad_export_path_fails_cleanly(self, capsys, tmp_path):
        code = run_cli(
            "suite", "run", "--scenarios", "synth-small",
            "--json", str(tmp_path / "missing" / "x.json"),
        )
        assert code == 2
        assert "cannot write suite JSON" in capsys.readouterr().err

    def test_bad_db_path_fails_cleanly(self, capsys, tmp_path):
        bad = str(tmp_path / "missing" / "dir" / "s.sqlite")
        for argv in (
            ["suite", "run", "--scenarios", "synth-small", "--db", bad],
            ["suite", "list", "--db", bad],
            ["suite", "compare", "--baseline", "x", "--db", bad],
        ):
            assert run_cli(*argv) == 2
            assert "cannot open result store" in capsys.readouterr().err


class TestSuiteCompare:
    def baseline(self, tmp_path, capsys) -> str:
        path = tmp_path / "base.json"
        run_cli(
            "suite", "run", "--scenarios", *FAST, "--json", str(path)
        )
        capsys.readouterr()
        return str(path)

    def test_self_compare_passes(self, capsys, tmp_path):
        base = self.baseline(tmp_path, capsys)
        code = run_cli(
            "suite", "compare", "--baseline", base,
            "--scenarios", *FAST,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no regressions" in out

    def test_injected_regression_exits_nonzero(self, capsys, tmp_path):
        """The acceptance check: double one scenario's cycles in the
        baseline-format JSON and the gate must fail the comparison."""
        base = self.baseline(tmp_path, capsys)
        payload = json.loads(open(base).read())
        doctored = tmp_path / "cand.json"
        payload["results"][0]["total_cycles"] *= 2
        doctored.write_text(json.dumps(payload))
        code = run_cli(
            "suite", "compare", "--baseline", base,
            "--candidate", str(doctored),
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "regressed" in out
        assert "total_cycles +100.0%" in out

    def test_compare_store_runs_by_id_and_label(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        run_cli(
            "suite", "run", "--scenarios", *FAST, "--db", db,
            "--label", "good",
        )
        capsys.readouterr()
        code = run_cli(
            "suite", "compare", "--db", db,
            "--baseline", "1", "--candidate", "good",
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_missing_baseline_reference(self, capsys, tmp_path):
        code = run_cli(
            "suite", "compare", "--baseline", str(tmp_path / "no.json"),
        )
        assert code == 2
        assert "no --db was given" in capsys.readouterr().err

    def test_unknown_label_in_store(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        run_cli("suite", "run", "--scenarios", "synth-small", "--db", db)
        capsys.readouterr()
        code = run_cli(
            "suite", "compare", "--db", db, "--baseline", "nope",
        )
        assert code == 2
        assert "no run labelled" in capsys.readouterr().err

    def test_non_ascii_digit_reference_is_an_error(self, capsys, tmp_path):
        """"²" passes ``str.isdigit`` and fails ``int``: it is a label
        the store lacks, reported on one error line with exit 2."""
        db = str(tmp_path / "s.sqlite")
        code = run_cli("suite", "compare", "--db", db, "--baseline", "²")
        assert code == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: ") and "no run labelled '²'" in line

    def test_non_ascii_digits_never_name_a_run_id(self, capsys, tmp_path):
        """"١" (ARABIC-INDIC DIGIT ONE) passes ``str.isdigit`` and
        ``int("١") == 1``; it must not quietly select run 1."""
        db = str(tmp_path / "s.sqlite")
        run_cli("suite", "run", "--scenarios", "synth-small", "--db", db)
        capsys.readouterr()
        code = run_cli(
            "suite", "compare", "--db", db,
            "--baseline", "\u0661", "--candidate", "1",
        )
        assert code == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line == "error: no run labelled '\u0661' in the result store"

    def test_save_candidate_refreshes_baseline(self, capsys, tmp_path):
        base = self.baseline(tmp_path, capsys)
        refreshed = tmp_path / "new_base.json"
        code = run_cli(
            "suite", "compare", "--baseline", base,
            "--scenarios", *FAST,
            "--save-candidate", str(refreshed),
        )
        capsys.readouterr()
        assert code == 0
        assert read_run_json(refreshed).scenario_names() == FAST

    def test_digit_label_resolves_as_label_not_id(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        run_cli(
            "suite", "run", "--scenarios", "synth-small", "--db", db,
            "--label", "2024",
        )
        capsys.readouterr()
        code = run_cli(
            "suite", "compare", "--db", db,
            "--baseline", "2024", "--candidate", "1",
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_invalid_threshold_fails_before_running(self, capsys, tmp_path):
        base = self.baseline(tmp_path, capsys)
        code = run_cli(
            "suite", "compare", "--baseline", base,
            "--cycle-threshold", "-5",
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cycle_percent" in captured.err
        # Failed fast: no suite table was printed.
        assert "scenario" not in captured.out

    def test_malformed_baseline_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = run_cli("suite", "compare", "--baseline", str(bad))
        assert code == 2
        assert "not a suite-run JSON file" in capsys.readouterr().err


def seed_history(db, scenario="synth-small", cycles=(1000, 1000, 2000)):
    """Record a run per cycle count directly into a store — much faster
    than re-running real scenarios through the CLI."""
    from repro.suite import ResultStore, ScenarioResult, SuiteRun

    fingerprints = [f"fp{i + 1:02d}" for i in range(len(cycles))]
    with ResultStore(db) as store:
        for fingerprint, c in zip(fingerprints, cycles):
            store.record_run(
                SuiteRun(
                    fingerprint=fingerprint,
                    results=[
                        ScenarioResult(
                            scenario=scenario,
                            workload="w",
                            platform="p",
                            algorithm="greedy",
                            constraint_fraction=0.5,
                            timing_constraint=500,
                            initial_cycles=2 * c,
                            total_cycles=c,
                            reduction_percent=50.0,
                            kernels_moved=2,
                            moved_bb_ids=(3, 7),
                            rows_used=2,
                            constraint_met=True,
                            wall_time_seconds=1.0,
                            configs_per_second=50_000.0,
                            phases=(("search", 0.5),),
                        )
                    ],
                )
            )
    return fingerprints


class TestSuiteHistory:
    def test_prints_longitudinal_table(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db)
        assert run_cli("suite", "history", "synth-small", "--db", db) == 0
        out = capsys.readouterr().out
        assert "3 run(s) of synth-small" in out
        assert "cycles" in out and "cfg/s" in out

    def test_csv_export(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db)
        csv_path = tmp_path / "history.csv"
        code = run_cli(
            "suite", "history", "synth-small",
            "--db", db, "--csv", str(csv_path),
        )
        capsys.readouterr()
        assert code == 0
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["total_cycles"] for row in rows] == [
            "1000", "1000", "2000",
        ]
        assert all(row["created_at"] for row in rows)

    def test_unknown_scenario_fails_cleanly(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db)
        code = run_cli("suite", "history", "nope", "--db", db)
        assert code == 2
        assert "no recorded results" in capsys.readouterr().err

    def test_real_run_feeds_history(self, capsys, tmp_path):
        """End to end: a real suite run is queryable via history."""
        db = str(tmp_path / "real.sqlite")
        run_cli("suite", "run", "--scenarios", "synth-small", "--db", db)
        capsys.readouterr()
        assert run_cli("suite", "history", "synth-small", "--db", db) == 0
        out = capsys.readouterr().out
        assert "1 run(s) of synth-small" in out
        assert " - " not in out  # created_at was stamped, not empty


class TestSuiteTrends:
    def test_flags_injected_regression_with_first_fingerprint(
        self, capsys, tmp_path
    ):
        db = str(tmp_path / "s.sqlite")
        seed_history(db, cycles=(1000, 1000, 2000, 2000))
        code = run_cli("suite", "trends", "--db", db)
        out = capsys.readouterr().out
        # Informational: steps print but the command succeeds.
        assert code == 0
        assert "total_cycles stepped" in out
        assert "fp03" in out  # the FIRST offending run's fingerprint
        assert "+100.0%" in out

    def test_stable_store_reports_no_steps(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db, cycles=(1000, 1000, 1000))
        assert run_cli("suite", "trends", "--db", db) == 0
        assert "no metric steps detected" in capsys.readouterr().out

    def test_artifact_exports(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db, cycles=(1000, 2000))
        html_path = tmp_path / "trends.html"
        csv_path = tmp_path / "trends.csv"
        code = run_cli(
            "suite", "trends", "--db", db,
            "--html", str(html_path), "--csv", str(csv_path),
        )
        capsys.readouterr()
        assert code == 0
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert "phase_search" in rows[0]

    def test_runs_json_mode(self, capsys, tmp_path):
        """CI mode: trends over baseline + candidate JSON, no store."""
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        run_cli(
            "suite", "run", "--scenarios", "synth-small",
            "--json", str(base),
        )
        capsys.readouterr()
        payload = json.loads(base.read_text())
        payload["fingerprint"] = "doctored"
        payload["results"][0]["total_cycles"] *= 2
        cand.write_text(json.dumps(payload))
        code = run_cli(
            "suite", "trends", "--runs", str(base), str(cand),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "total_cycles stepped" in out
        assert "doctored" in out

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        assert run_cli("suite", "trends") == 2
        assert "exactly one" in capsys.readouterr().err
        db = str(tmp_path / "s.sqlite")
        seed_history(db)
        code = run_cli(
            "suite", "trends", "--db", db, "--runs", "x.json",
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_empty_store_fails_cleanly(self, capsys, tmp_path):
        db = str(tmp_path / "empty.sqlite")
        code = run_cli("suite", "trends", "--db", db)
        assert code == 2
        assert "no scenarios" in capsys.readouterr().err

    def test_scenario_filter(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db, scenario="a-scn")
        seed_history(db, scenario="b-scn")
        code = run_cli(
            "suite", "trends", "--db", db, "--scenarios", "b-scn",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "b-scn" in out and "a-scn" not in out

    def test_custom_threshold_suppresses_step(self, capsys, tmp_path):
        db = str(tmp_path / "s.sqlite")
        seed_history(db, cycles=(1000, 2000))
        code = run_cli(
            "suite", "trends", "--db", db, "--cycle-step", "150",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "total_cycles stepped" not in out
