"""Tests for the usptest command-line interface.

All invocations go through ``usptest.cli.main(argv)`` in process, so exit
codes and output bytes are asserted directly.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from usptest import cli
from usptest.cli import main
from usptest.datasets import get_dataset

MARITAL_ROWS = [
    "18,36,21,9,6",
    "12,36,45,36,21",
    "6,9,9,3,3",
    "3,9,9,6,3",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTestCommand:
    def test_classic_pearson_json(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["test", "--dataset", "marital", "--method", "pearson", "--mode", "classic"],
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "method", "mode", "statistic", "p_value", "reject", "alpha", "B", "df", "seed",
        ]
        assert report["method"] == "pearson"
        assert report["mode"] == "classic"
        assert report["statistic"] == pytest.approx(23.6, abs=0.05)
        assert report["p_value"] == pytest.approx(0.0233, abs=5e-4)
        assert report["reject"] is True
        assert report["df"] == 12
        assert report["B"] is None

    def test_permutation_p_value_granularity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["test", "--dataset", "marital", "--method", "usp", "--B", "99", "--seed", "3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["df"] is None
        assert report["B"] == 99
        scaled = report["p_value"] * 100
        assert abs(scaled - round(scaled)) < 1e-9
        assert report["reject"] == (report["p_value"] <= report["alpha"])

    def test_conservative_tie_policy_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "test", "--dataset", "eyecolour", "--method", "g", "--B", "49",
                "--tie-policy", "conservative", "--seed", "1",
            ],
        )
        assert code == 0
        scaled = json.loads(out)["p_value"] * 50
        assert abs(scaled - round(scaled)) < 1e-9

    def test_repeat_invocations_byte_identical(self, capsys):
        argv = ["test", "--dataset", "eyecolour", "--method", "usp", "--B", "199"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            ["test", "--dataset", "marital", "--mode", "classic", "--method", "g",
             "--out", str(path)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["method"] == "g"


class TestInputParsing:
    def test_csv_file_matches_dataset(self, capsys, tmp_path):
        path = tmp_path / "marital.csv"
        path.write_text(
            "# marital status by education\n\n" + "\n".join(MARITAL_ROWS) + "\n"
        )
        argv_tail = ["--method", "pearson", "--mode", "classic"]
        _, from_file, _ = run_cli(capsys, ["test", "--input", str(path)] + argv_tail)
        _, from_dataset, _ = run_cli(capsys, ["test", "--dataset", "marital"] + argv_tail)
        assert from_file == from_dataset

    def test_bad_cell_names_location(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,x,6\n")
        code, _, err = run_cli(capsys, ["test", "--input", str(path)])
        assert code == 2
        assert "line 2" in err and "column 2" in err

    def test_ragged_rows_rejected(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        code, _, err = run_cli(capsys, ["test", "--input", str(path)])
        assert code == 2
        assert "expected 3 columns" in err

    def test_empty_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n\n")
        assert run_cli(capsys, ["test", "--input", str(path)])[0] == 2

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["test", "--input", str(tmp_path / "nope.csv")])
        assert code == 2
        assert "cannot read" in err

    def test_negative_count_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,-2\n3,4\n")
        assert run_cli(capsys, ["test", "--input", str(path)])[0] == 2


class TestExitCodes:
    def test_zero_margin_classic_is_three(self, capsys, tmp_path):
        path = tmp_path / "zerocol.csv"
        path.write_text("3,0,3\n2,0,2\n")
        code, _, err = run_cli(
            capsys,
            ["test", "--input", str(path), "--method", "pearson", "--mode", "classic"],
        )
        assert code == 3
        assert "error:" in err

    def test_one_by_k_zero_margin_classic_is_two(self, capsys, tmp_path):
        path = tmp_path / "onerow.csv"
        path.write_text("4,0,6\n")
        code, out, err = run_cli(
            capsys,
            ["test", "--input", str(path), "--method", "g", "--mode", "classic"],
        )
        assert (code, out) == (2, "")
        assert err == "error: classic mode needs at least a 2x2 table, got 1x3\n"

    def test_usp_has_no_classic_mode(self, capsys):
        code, _, _ = run_cli(
            capsys, ["test", "--dataset", "marital", "--method", "usp", "--mode", "classic"]
        )
        assert code == 2

    def test_config_validation_is_two(self, capsys):
        assert run_cli(capsys, ["test", "--dataset", "marital", "--alpha", "1.5"])[0] == 2
        assert run_cli(capsys, ["test", "--dataset", "marital", "--B", "0"])[0] == 2

    def test_argparse_errors_are_two(self, capsys):
        assert main([]) == 2
        assert main(["test"]) == 2
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_subsample_m_too_large_is_two(self, capsys):
        code, _, _ = run_cli(
            capsys, ["subsample", "--dataset", "eyecolour", "--m", "99999", "--reps", "5"]
        )
        assert code == 2

    def test_subsample_m_too_small_is_two(self, capsys):
        code, _, _ = run_cli(
            capsys, ["subsample", "--dataset", "eyecolour", "--m", "3", "--reps", "5"]
        )
        assert code == 2

    def test_reps_zero_is_two(self, capsys):
        code, _, _ = run_cli(
            capsys, ["power", "--family", "sparse", "--reps", "0", "--B", "9"]
        )
        assert code == 2

    def test_margin_past_hypergeometric_limit_is_two(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1000000000,1\n1,1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["test", "--input", str(path), "--B", "19"])
        assert code == 2 and out == ""
        assert "below 10^9" in err

    def test_no_replace_past_hypergeometric_limit_is_two(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1000000000,1\n1,1\n", encoding="utf-8")
        argv = ["subsample", "--input", str(path), "--m", "10", "--reps", "2", "--B", "19"]
        code, out, err = run_cli(capsys, argv + ["--no-replace"])
        assert code == 2 and out == ""
        assert "below 10^9" in err and "this table has 1000000003" in err
        # with replacement the table is only a set of cell probabilities
        assert run_cli(capsys, argv)[0] == 0

    def test_unknown_test_token_is_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["power", "--family", "sparse", "--reps", "2", "--B", "19",
             "--tests", "usp,median"],
        )
        assert code == 2
        assert "median" in err

    def test_bad_grids_are_two(self, capsys):
        base = ["power", "--family", "sparse", "--reps", "2", "--B", "9", "--eps-grid"]
        for spec in ("0.05:0.0:3", "a:b:c", "0:1", "0:0.05:0"):
            assert run_cli(capsys, base + [spec])[0] == 2, spec

    def test_asymsize_domain_checks(self, capsys):
        assert run_cli(capsys, ["asymsize", "--test", "pearson", "--lambda", "-1:2:3"])[0] == 2
        assert run_cli(capsys, ["asymsize", "--test", "pearson", "--alpha", "0"])[0] == 2

    def test_asymsize_lambda_above_the_cap_is_two(self, capsys):
        for spec in ("1100:1100:1", "999:1000.5:2"):
            code, out, err = run_cli(capsys, ["asymsize", "--test", "pearson", "--lambda", spec])
            assert (code, out) == (2, ""), spec
            assert "at most 1000" in err
        code, out, _ = run_cli(capsys, ["asymsize", "--test", "g", "--lambda", "1000:1000:1"])
        assert code == 0 and float(out.split("\n")[1].split(",")[3]) > 0.04

    @pytest.mark.filterwarnings("error")
    def test_non_finite_grid_ends_are_two(self, capsys):
        for spec in ("1:inf:2", "-inf:1:2", "nan:1:2", "1:nan:2", "-1e308:1.7e308:3"):
            code, _, err = run_cli(capsys, ["asymsize", "--test", "pearson", f"--lambda={spec}"])
            assert code == 2, spec
            assert "finite" in err, spec

    def test_infeasible_epsilon_is_two(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["power", "--family", "sparse", "--reps", "2", "--B", "19",
             "--eps-grid", "0:0.5:2"],
        )
        assert code == 2


class TestPowerCommand:
    def test_csv_shape_and_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["power", "--family", "sparse", "--n", "40", "--reps", "4", "--B", "19",
             "--eps-grid", "0:0.05:2", "--tests", "usp"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epsilon,n,reps,method,mode,rejection_rate,std_err"
        assert len(lines) == 3
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.05]

    def test_classic_undefined_note_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["power", "--family", "sparse", "--n", "40", "--reps", "30", "--B", "19",
             "--eps-grid", "0:0:1", "--tests", "pearson-classic", "--seed", "2"],
        )
        assert code == 0
        assert "note:" in err and "undefined" in err
        assert "note:" not in out


class TestAsymsizeCommand:
    def test_known_values_at_lambda_one(self, capsys):
        _, out, _ = run_cli(capsys, ["asymsize", "--test", "pearson", "--lambda", "1:1:1"])
        line = out.strip().split("\n")[1]
        assert float(line.split(",")[3]) == pytest.approx(1 - 2.5 / math.e, abs=1e-12)
        _, out, _ = run_cli(capsys, ["asymsize", "--test", "g", "--lambda", "1:1:1"])
        line = out.strip().split("\n")[1]
        assert float(line.split(",")[3]) == pytest.approx(1 - (8 / 3) / math.e, abs=1e-12)

    def test_default_grid_size(self, capsys):
        _, out, _ = run_cli(capsys, ["asymsize", "--test", "g"])
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,alpha,test,asymptotic_size"
        assert len(lines) == 501


class TestSubsampleCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["subsample", "--dataset", "eyecolour", "--m", "84", "--reps", "5",
             "--B", "19"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,reps,method,mode,rejection_rate,std_err"
        assert len(lines) == 4
        assert all(l.startswith("84,5,") for l in lines[1:])

    def test_no_replace_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["subsample", "--dataset", "eyecolour", "--m", "50", "--reps", "4",
             "--B", "19", "--no-replace", "--tests", "usp"],
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_no_replace_at_full_size_reproduces_decision(self, capsys):
        # at m = n, --no-replace re-tests the original table every time, and
        # the marital USP rejection is decisive
        _, out, _ = run_cli(
            capsys,
            ["subsample", "--dataset", "marital", "--m", "300", "--reps", "6",
             "--B", "99", "--tests", "usp", "--no-replace"],
        )
        assert out.strip().split("\n")[1].split(",")[4] == "1.0"


class TestDhatCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, ["dhat", "--family", "multiplicative", "--n", "20", "--reps", "5"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epsilon,n,rep,dhat"
        assert len(lines) == 6
        assert lines[1].startswith("0.0,20,0,")

    def test_eps_forwarded(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["dhat", "--family", "sparse", "--n", "30", "--eps", "0.05", "--reps", "3"],
        )
        assert all(l.startswith("0.05,30,") for l in out.strip().split("\n")[1:])


class TestThreads:
    def test_env_var_thread_count_keeps_output(self, capsys, monkeypatch, pool_spy):
        argv = ["power", "--family", "dense", "--n", "30", "--reps", "8", "--B", "19",
                "--eps-grid", "0:0.01:2", "--tests", "usp"]
        _, serial, _ = run_cli(capsys, argv + ["--threads", "1"])
        monkeypatch.setenv("USP_THREADS", "2")
        _, from_env, _ = run_cli(capsys, argv)
        assert pool_spy == [2]
        assert from_env == serial

    def test_env_var_garbage_falls_back(self, capsys, monkeypatch):
        monkeypatch.setenv("USP_THREADS", "many")
        code, out, _ = run_cli(
            capsys,
            ["dhat", "--family", "sparse", "--n", "20", "--reps", "3"],
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 4


class TestParserReuse:
    # main builds its parser once per process; each call in a sequence must
    # give the output, file and exit code it gives on a freshly built parser
    @staticmethod
    def call(capsys, argv, out_path):
        result = run_cli(capsys, argv)
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return result + (written,)

    def test_sequences_match_fresh_calls(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        test_argv = ["test", "--dataset", "marital", "--B", "99", "--seed", "4"]
        sequences = [
            [test_argv + ["--out", str(path)], test_argv],
            [["power", "--family", "sparse", "--reps", "x"], test_argv],
            [
                ["power", "--family", "sparse", "--n", "30", "--reps", "6", "--B", "19",
                 "--eps-grid", "0:0.05:2", "--tests", "usp,g-classic"],
                ["dhat", "--family", "dense", "--n", "20", "--reps", "4"],
            ],
        ]
        results = []
        for sequence in sequences:
            alone = []
            for argv in sequence:
                cli._parser.cache_clear()
                alone.append(self.call(capsys, argv, path))
            cli._parser.cache_clear()
            in_turn = [self.call(capsys, argv, path) for argv in sequence]
            assert cli._parser.cache_info().misses == 1
            assert in_turn == alone
            results.append(alone)
        # (code, stdout, stderr, file) of each call
        (to_file, to_stdout), (bad, good), (power, dhat) = results
        assert to_file[0] == to_stdout[0] == 0
        assert to_file[1] == "" and to_file[3] == to_stdout[1] and to_stdout[3] is None
        assert bad[0] == 2 and "invalid int value" in bad[2] and good == to_stdout
        assert power[0] == dhat[0] == 0 and "g,classic" in power[1]
        assert dhat[1].startswith("epsilon,n,rep,dhat\n")


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "usptest.cli", "asymsize", "--test", "pearson",
             "--lambda", "1:1:1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("lambda,alpha,test,asymptotic_size\n")
