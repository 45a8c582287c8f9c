"""Tests for the ``python -m repro`` command-line entry point."""

import csv
import json

import pytest

from oracles import object_partitioner
from repro.__main__ import main, parse_algorithm, parse_workload
from repro.explore import PlatformSpec, WorkloadSpec
from repro.search import AlgorithmSpec


class TestParsers:
    def test_parse_paper_workloads(self):
        assert parse_workload("ofdm").kind == "ofdm"
        assert parse_workload("jpeg").kind == "jpeg"

    def test_parse_synthetic_with_params(self):
        spec = parse_workload("synthetic:24:seed=3,comm_intensity=0.8")
        assert spec.kind == "synthetic"
        params = dict(spec.params)
        assert params["block_count"] == 24
        assert params["seed"] == 3
        assert params["comm_intensity"] == 0.8

    def test_parse_workload_rejects_unknown(self):
        with pytest.raises(Exception):
            parse_workload("mp3")
        with pytest.raises(Exception):
            parse_workload("synthetic")  # missing block count

    def test_parse_new_workload_kinds(self):
        assert parse_workload("filterbank").kind == "filterbank"
        assert parse_workload("viterbi:states=32").label == (
            "viterbi-decoder-s32-g48"
        )
        spec = parse_workload("filterbank:channels=12,taps=24")
        assert dict(spec.params) == {"channels": 12, "taps": 24}

    def test_parse_workload_rejects_bad_parameters(self):
        with pytest.raises(Exception, match="bad parameters"):
            parse_workload("filterbank:bogus=1")
        with pytest.raises(Exception, match="bad parameters"):
            parse_workload("viterbi:trellis=9")
        with pytest.raises(Exception, match="integer"):
            parse_workload("synthetic:many")
        with pytest.raises(Exception, match="key=value"):
            parse_workload("synthetic:8:seed")

    def test_parse_algorithm_with_params(self):
        assert parse_algorithm("greedy") == AlgorithmSpec.greedy()
        spec = parse_algorithm("annealing:seed=7,cooling=0.8")
        assert spec.name == "annealing"
        assert dict(spec.params)["seed"] == 7
        assert dict(spec.params)["cooling"] == 0.8

    def test_parse_algorithm_rejects_unknown(self):
        with pytest.raises(Exception):
            parse_algorithm("tabu")
        with pytest.raises(Exception):
            parse_algorithm("greedy:bogus_param=1")


class TestPartitionCommand:
    def test_partition_with_fraction(self, capsys):
        code = main(
            ["partition", "--workload", "ofdm", "--fraction", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ofdm-transmitter" in out
        assert "constraint" in out and "met" in out

    def test_partition_with_absolute_constraint_and_algorithm(self, capsys):
        code = main(
            [
                "partition",
                "--workload", "synthetic:12:seed=2",
                "--constraint", "1",
                "--algorithm", "multi_start:restarts=4",
                "--pareto",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "multi_start" in out
        assert "Pareto front" in out

    def test_partition_matches_object_reference(self, capsys):
        """The CLI's greedy partition prints the summary the object
        reference walk (``tests/oracles``) computes for the same pair
        and constraint (the CLI-level differential check)."""
        assert main(
            ["partition", "--workload", "ofdm", "--fraction", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        reference = object_partitioner(
            AlgorithmSpec.greedy(),
            WorkloadSpec.ofdm().build(),
            PlatformSpec().build(),
        )
        constraint = max(1, round(reference.initial_cycles() * 0.5))
        assert reference.run(constraint).summary() in out

    def test_unknown_substrate_rejected(self, capsys):
        """The packed table is the only substrate: the flag is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "partition", "--workload", "ofdm",
                    "--fraction", "0.5", "--substrate", "packed",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_prune_param_is_accepted_and_ignored(self, capsys):
        """exhaustive:prune=true is the same search as exhaustive."""
        outputs = []
        for algorithm in ("exhaustive:prune=true", "exhaustive"):
            assert main(
                ["partition", "--workload", "ofdm", "--fraction", "0.5",
                 "--algorithm", algorithm]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "algorithm: exhaustive\n" in outputs[0]

    @pytest.mark.parametrize(
        "flags", [["--shards", "2"], ["--prune"], ["--search-workers", "1"]]
    )
    def test_removed_exact_search_flags_are_usage_errors(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["partition", "--workload", "ofdm", "--fraction", "0.5",
                 "--algorithm", "exhaustive", *flags]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_exact_flags_rejected_for_other_algorithms(self, capsys):
        """The exact-search flags are gone for every algorithm."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "partition", "--workload", "ofdm", "--fraction", "0.5",
                    "--algorithm", "greedy", "--shards", "2",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    def test_constraint_and_fraction_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "partition", "--workload", "ofdm",
                    "--constraint", "10", "--fraction", "0.5",
                ]
            )

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_workload_via_main_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", "--workload", "mp3", "--fraction", "0.5"])
        assert excinfo.value.code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_algorithm_via_main_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "partition", "--workload", "ofdm",
                    "--fraction", "0.5", "--algorithm", "tabu",
                ]
            )
        assert excinfo.value.code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_bad_workload_parameter_value_is_rejected(self, capsys):
        # Parameter *names* fail at parse time; bad *values* surface at
        # build time and must exit 2, not crash.
        code = main(
            [
                "partition", "--workload", "viterbi:states=3",
                "--fraction", "0.5",
            ]
        )
        assert code == 2
        assert "power of two" in capsys.readouterr().err

    def test_negative_fraction_is_rejected(self, capsys):
        code = main(
            ["partition", "--workload", "ofdm", "--fraction", "-0.5"]
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--deadline", "0"], "--deadline must be positive"),
            (["--max-kernels", "-1"], "max_kernels_moved must be >= 0"),
            (["--deadline", "-1"], "--deadline must be positive"),
        ],
    )
    def test_out_of_range_search_option_is_rejected(
        self, capsys, flags, message
    ):
        code = main(
            ["partition", "--workload", "ofdm", "--fraction", "0.5", *flags]
        )
        assert code == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--afpga", "0", "--fraction", "0.5"], "afpga and cgc_count"),
            (["--cgcs", "0", "--fraction", "0.5"], "afpga and cgc_count"),
            (["--clock-ratio", "0", "--fraction", "0.5"], "clock_ratio"),
            (
                ["--reconfig-cycles", "-3", "--fraction", "0.5"],
                "reconfig_cycles must be >= 0",
            ),
            (["--constraint", "0"], "timing constraints must be positive"),
            (["--fraction", "nan"], "fractions must be positive and finite"),
            (["--fraction", "inf"], "fractions must be positive and finite"),
            (["--fraction", "1e308"], "cycles is not finite"),
        ],
    )
    def test_out_of_range_input_is_rejected(self, capsys, flags, message):
        code = main(["partition", "--workload", "ofdm", *flags])
        assert code == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize(
        "algorithm,message",
        [
            ("exhaustive:max_candidates=0", "max_candidates must be >= 1"),
            ("annealing:cooling=2", "cooling must be in (0, 1)"),
            ("multi_start:restarts=0", "restarts must be >= 1"),
        ],
    )
    def test_out_of_range_algorithm_parameter_is_a_usage_error(
        self, capsys, algorithm, message
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "partition", "--workload", "ofdm",
                    "--fraction", "0.5", "--algorithm", algorithm,
                ]
            )
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestExploreCommand:
    def test_explore_writes_csv_and_json(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        json_path = tmp_path / "grid.json"
        code = main(
            [
                "explore",
                "--workloads", "ofdm",
                "--afpga", "1500",
                "--cgcs", "2",
                "--fractions", "0.5",
                "--algorithms", "greedy", "multi_start",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Best point per algorithm" in out
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert {row["algorithm"] for row in rows} == {"greedy", "multi_start"}
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["points"] == 2

    def test_explore_substrate_flag(self, capsys):
        """The flag went with the object substrate: a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explore", "--workloads", "ofdm",
                    "--substrate", "packed",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_export_path_reports_instead_of_crashing(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "explore",
                "--workloads", "viterbi",
                "--afpga", "1500",
                "--cgcs", "2",
                "--fractions", "0.5",
                "--csv", str(tmp_path / "no" / "such" / "dir" / "grid.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot write exploration CSV" in captured.err
        # The grid itself still printed before the export failed.
        assert "viterbi-decoder" in captured.out


class TestVerifyCommand:
    def test_parse_minic_workload(self):
        spec = parse_workload("minic:5")
        assert spec.kind == "minic"
        assert dict(spec.params)["seed"] == 5
        assert parse_workload("minic").kind == "minic"
        with pytest.raises(Exception, match="integer"):
            parse_workload("minic:zero")

    def test_verify_single_workload(self, capsys):
        code = main(["verify", "minic:0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "minic-s0: ok" in out
        assert "1 clean, 0 failing" in out

    def test_verify_all_covers_ir_backed_kinds(self, capsys):
        code = main(["verify", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ofdm-transmitter-measured-s6: ok" in out
        assert "jpeg-encoder-measured-i1994: ok" in out
        assert "minic-s0: ok" in out
        # Table-driven suite workloads have no IR and are skipped.
        assert "skipped (no IR" in out
        assert "0 failing" in out

    def test_verify_stats_prints_per_function_rows(self, capsys):
        code = main(["verify", "minic:3", "--stats", "--no-optimize"])
        out = capsys.readouterr().out
        assert code == 0
        assert "entry:" in out
        assert "loops" in out
        assert "peak live scalars" in out

    def test_verify_without_workloads_errors(self, capsys):
        code = main(["verify"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no workloads" in captured.err
