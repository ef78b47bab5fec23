"""Tests for the usptest command-line interface.

All invocations go through ``usptest.cli.main(argv)`` in process, so exit
codes and output bytes are asserted directly.
"""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from usptest import cli, permutation
from usptest.asymptotics import DEFAULT_LAMBDA_GRID, size_curve, size_curve_csv
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

    def test_tie_policy_choices_are_the_library_s(self, capsys):
        assert main(["test", "--dataset", "marital", "--tie-policy", "sometimes"]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert "--tie-policy: invalid choice: 'sometimes'" in err
        assert all(policy in err for policy in permutation._TIE_POLICIES)

    def test_repeat_invocations_byte_identical(self, capsys):
        argv = ["test", "--dataset", "eyecolour", "--method", "usp", "--B", "199"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["test", "--dataset", "marital", "--B", "9"],
             "401f1a2611c4670a2ca5978df05c56c8d6e5650ec4705ea8fbb880a4d698ef82"),
            (["subsample", "--dataset", "marital", "--m", "50", "--reps", "3", "--B", "9",
              "--tests", "usp"],
             "88ffa553219657cc08f31d4566753a5408dd95415285680ab2bc946d520165a7"),
        ],
    )
    def test_unattainable_level_is_one_note_line(self, capsys, argv, digest):
        # alpha (B + 1) = 0.5: the library's UserWarning reaches stderr as one
        # note, with no source line, and stdout keeps its bytes
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert err == (
            "note: alpha*(B+1) = 0.5 < 1: the smallest attainable p-value 1/(B+1) "
            "exceeds alpha, so the test can never reject\n"
        )
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_classic_mode_gets_no_unattainable_note(self, capsys, tmp_path):
        # alpha (B + 1) = 0.1 bounds permutation p-values only: this classic
        # test rejects, so a note that it never can would be false
        path = tmp_path / "diagonal.csv"
        path.write_text("500,0\n0,500\n")
        code, out, err = run_cli(
            capsys,
            ["test", "--input", str(path), "--method", "pearson", "--mode", "classic",
             "--alpha", "0.0001"],
        )
        assert code == 0 and err == ""
        assert json.loads(out)["reject"] is True

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

    def test_file_not_utf8_rejected(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("# caf\xe9\n1,2\n3,4\n".encode("latin-1"))
        code, out, err = run_cli(capsys, ["test", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_cell_past_int64_names_the_exact_integer(self, capsys, tmp_path):
        # numpy holds 2**64 as a Python object and reads 2**63 as a float
        for big in (2**64, 2**63, -(2**70)):
            path = tmp_path / "big.csv"
            path.write_text(f"1,2\n3,{big}\n")
            code, out, err = run_cli(capsys, ["test", "--input", str(path)])
            assert (code, out) == (2, "")
            assert err == f"error: cell (1,1) is outside the int64 range: {big}\n"

    def test_byte_order_mark_is_read_as_utf8(self, capsys, tmp_path):
        # a table saved as "CSV UTF-8" starts with the bytes EF BB BF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("\n".join(MARITAL_ROWS) + "\n", encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        argv_tail = ["--method", "pearson", "--mode", "classic"]
        want = run_cli(capsys, ["test", "--input", str(plain)] + argv_tail)
        assert want[0] == 0
        assert run_cli(capsys, ["test", "--input", str(marked)] + argv_tail) == want
        want_counts = get_dataset("marital").table.counts.tolist()
        assert cli._read_table_csv(str(marked)).counts.tolist() == want_counts

    def test_byte_order_mark_inside_a_later_cell_rejected(self, capsys, tmp_path):
        path = tmp_path / "inner.csv"
        path.write_text("1,2\n\ufeff3,4\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["test", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 2, column 1: not an integer: '\\ufeff3'\n"

    @pytest.mark.parametrize(
        "cell", ["1_0", "\uff11\uff12", "\u0663", "1.0", "1e3", "0x10", "", "+", "- 1"]
    )
    def test_cell_must_be_ascii_decimal_integer(self, capsys, tmp_path, cell):
        # int() would read 1_0 as 10, fullwidth digits as 12 and an Arabic-Indic
        # three as 3
        path = tmp_path / "cell.csv"
        path.write_text(f"1,2\n3,{cell}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["test", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 2, column 2: not an integer: {cell!r}\n"
        assert "Traceback" not in err

    def test_signed_ascii_cells_read(self, capsys, tmp_path):
        path = tmp_path / "signed.csv"
        path.write_text("+1, 2\n3 ,+04\n", encoding="utf-8")
        assert cli._read_table_csv(str(path)).counts.tolist() == [[1, 2], [3, 4]]

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

    @pytest.mark.parametrize(
        "argv, size, got",
        [
            (["power", "--family", "sparse", "--n", "0", "--eps-grid", "0:0.02:2"], "n", 0),
            (["power", "--family", "sparse", "--n", "1", "--eps-grid", "0:0.02:2"], "n", 1),
            (["subsample", "--dataset", "marital", "--m", "0"], "m", 0),
            (["subsample", "--dataset", "marital", "--m", "1", "--no-replace"], "m", 1),
        ],
    )
    def test_study_of_fewer_than_two_observations_is_two(self, capsys, argv, size, got):
        # the message names the flag the user set: subsample has --m, not --n
        code, out, err = run_cli(
            capsys, argv + ["--reps", "10", "--B", "19", "--tests", "pearson-perm,g-perm"]
        )
        assert code == 2
        assert out == ""
        assert f"{size} >= 2 observations per table, got {size}={got}:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["subsample", "--dataset", "marital", "--m", "3"],
             "error: usp statistic needs m >= 4, got m=3\n"),
            (["power", "--family", "sparse", "--n", "3"],
             "error: usp statistic needs n >= 4, got n=3\n"),
        ],
    )
    def test_usp_size_error_names_the_size_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv + ["--reps", "2", "--B", "19"])
        assert (code, out, err) == (2, "", message)

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

    def test_sample_size_past_the_int64_range_is_two(self, capsys):
        # both exited 1 with an OverflowError traceback from numpy's multinomial
        for argv in (
            ["power", "--family", "sparse", "--n", "9223372036854775808", "--reps", "1",
             "--eps-grid", "0:0:1", "--B", "9"],
            ["dhat", "--family", "sparse", "--n", "9223372036854775808", "--reps", "1"],
        ):
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, ""), argv
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert errors == [
                "error: sample size must be below 2^63 (numpy's samplers draw int64 counts), "
                "got 9223372036854775808"
            ]
            assert "Traceback" not in err

    def test_asymsize_alpha_below_its_floor_is_two(self, capsys):
        # the message named p = 1 - alpha, which the user never gave
        argv = ["asymsize", "--test", "g", "--alpha", "1e-17", "--lambda", "1:1:1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: alpha must be at least 5.551115123125784e-17")
        assert err.endswith("got 1e-17\n") and err.count("\n") == 1 and "p=" not in err

    def test_unknown_test_token_is_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["power", "--family", "sparse", "--reps", "2", "--B", "19",
             "--tests", "usp,median"],
        )
        assert code == 2
        assert "median" in err

    def test_repeated_test_is_two(self, capsys):
        # both entries would share one exceedance row with two tie-breaks, so
        # one test would print two rates for the same tables
        for command in (
            ["power", "--family", "sparse", "--n", "12", "--eps-grid", "0:0.06:2"],
            ["subsample", "--dataset", "marital", "--m", "50"],
        ):
            code, out, err = run_cli(
                capsys,
                [*command, "--reps", "20", "--B", "19", "--seed", "5",
                 "--tests", "pearson-perm,pearson-perm,g-perm"],
            )
            assert (code, out) == (2, ""), command
            assert err == "error: test ('pearson', 'permutation') is listed twice\n"

    def test_bad_grids_are_two(self, capsys):
        base = ["power", "--family", "sparse", "--reps", "2", "--B", "9", "--eps-grid"]
        for spec in ("0.05:0.0:3", "a:b:c", "0:1", "0:0.05:0"):
            assert run_cli(capsys, base + [spec])[0] == 2, spec

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["power", "--family", "sparse", "--eps-grid"], "0:0.01:10000000000000000000"),
            (["asymsize", "--test", "pearson", "--lambda"], "0.1:1:2305843009213693952"),
        ],
    )
    def test_a_grid_numpy_refuses_is_two(self, capsys, argv, count):
        # numpy refuses both counts before it allocates anything
        code, out, err = run_cli(capsys, argv + [count])
        flag, n = argv[-1], count.rsplit(":", 1)[1]
        assert (code, out, err) == (2, "", f"error: {flag} count {n} is too large for a grid\n")

    def test_a_grid_numpy_cannot_allocate_is_two(self, capsys, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "linspace", refuse)
        argv = ["asymsize", "--test", "g", "--lambda", "1:2:1000000000000"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: --lambda count 1000000000000 is too large for a grid\n"

    def test_asymsize_domain_checks(self, capsys):
        # the library's checks, reported as usage errors
        for spec in ("--lambda=-1:2:3", "--lambda=0:2:3"):
            code, out, err = run_cli(capsys, ["asymsize", "--test", "pearson", spec])
            assert (code, out) == (2, "") and "lambda must be positive" in err, spec
        code, out, err = run_cli(capsys, ["asymsize", "--test", "pearson", "--alpha", "0"])
        assert (code, out) == (2, "") and "alpha must lie in (0, 1)" in err

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

    # sha256 of stdout, recorded while chi2_quantile still bisected every
    # step and each point was a frozen dataclass
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--test", "pearson", "--alpha", "0.05"],
             "851c2d33128a351dc7a7801944d8676ffdc467fe420326a5da03e989273b41a1"),
            (["--test", "pearson", "--alpha", "0.01"],
             "8c1d37bff755acbb6b86a50b62bbafe3e35f3744a1c8cf1b4d447a523cf01114"),
            (["--test", "g", "--alpha", "0.05"],
             "4933389b3cb0ef3c5f81f15a5ab62306663bcd64a492a4b0b35691c19c3bdc2c"),
            (["--test", "g", "--alpha", "0.01"],
             "c02dd2adc59393e9459b0165ce0d82b0d6c62c82d30f5b5d444b0b79f484d0d4"),
            (["--test", "pearson", "--lambda", "0.5:2:4"],
             "fc4d28719297641066e250a258fda2b085a4c0326fadcd6a0df8cfd0f5930613"),
            (["--test", "g", "--lambda", "0.5:2:4"],
             "0be914c29d877ce15b70ec477c78fd6e8e49a2468672991370733bbdb8f20f9b"),
        ],
    )
    def test_stdout_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, ["asymsize", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("test", ["pearson", "g"])
    @pytest.mark.parametrize("grid", [None, "0.5:2:4"])
    def test_stdout_is_the_library_writer(self, capsys, test, grid):
        argv = ["asymsize", "--test", test, "--alpha", "0.01"]
        lambdas = DEFAULT_LAMBDA_GRID if grid is None else np.linspace(0.5, 2.0, 4)
        code, out, _ = run_cli(capsys, argv + ([] if grid is None else ["--lambda", grid]))
        assert code == 0 and out == size_curve_csv(size_curve(test, 0.01, lambdas))


_ALL_TESTS = "usp,pearson-perm,g-perm,pearson-classic,g-classic"


class TestStdoutPins:
    # sha256 of stdout, recorded while the statistics still returned a
    # StatisticValue and each integer argument had its own check; the
    # classic marital pearson and g and eyecolour g p-values were re-recorded
    # when chi2_sf became the closed-form sum, each within 2e-15 of the
    # exact tail, and the marital pair again when that sum became windowed,
    # each within 5e-16 of scipy's tail

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["marital", "--method", "usp"],
             "a83813c11539bfa4cd05a9486af105e23936f9dc0ad13aa9c41a032eb3efd9fa"),
            (["marital", "--method", "pearson"],
             "97eafd298d806c2ac5310af60d1b5b82a28326e0d26fca13a08f9ecd25694ecc"),
            (["marital", "--method", "g"],
             "9c58f9d6553ea0eec84d4ee146292b273e3526849fd216dd8139ae7076b40ee6"),
            (["marital", "--method", "pearson", "--mode", "classic"],
             "8ceaa140d8bb2ef343a5b72cbfc3343982250119ac596b40a1ac13ee6a25be3d"),
            (["marital", "--method", "g", "--mode", "classic"],
             "54461a1f7095dd92b8caffd5a4eeb174e146f02f54a1504e9401aa39e8441902"),
            (["marital", "--method", "usp", "--tie-policy", "conservative"],
             "a83813c11539bfa4cd05a9486af105e23936f9dc0ad13aa9c41a032eb3efd9fa"),
            (["marital", "--method", "pearson", "--tie-policy", "conservative"],
             "97eafd298d806c2ac5310af60d1b5b82a28326e0d26fca13a08f9ecd25694ecc"),
            (["marital", "--method", "g", "--tie-policy", "conservative"],
             "9c58f9d6553ea0eec84d4ee146292b273e3526849fd216dd8139ae7076b40ee6"),
            (["eyecolour", "--method", "usp"],
             "3b3378a7eb24bbadbbbfe124b4685210183233c5ed66b7b754f960a4552a812f"),
            (["eyecolour", "--method", "pearson"],
             "99636582b501ef13e2297f78b594e954327bf2ffc4025553a4bae8071df4b32e"),
            (["eyecolour", "--method", "g"],
             "3d019e4ac6d7b9b7feeb30fe49e7bcbe6b5f405cfeb544a3f96af253aa0aaf71"),
            (["eyecolour", "--method", "pearson", "--mode", "classic"],
             "f87d4f5270a2fb099d77cb06eea612c6f41ef0958ccc283f0e6c46429c503815"),
            (["eyecolour", "--method", "g", "--mode", "classic"],
             "6e3c88d7062e2cf36369466512372f52e5fae35c6d8612947b20af6e0f910b66"),
            (["eyecolour", "--method", "usp", "--tie-policy", "conservative"],
             "3b3378a7eb24bbadbbbfe124b4685210183233c5ed66b7b754f960a4552a812f"),
            (["eyecolour", "--method", "pearson", "--tie-policy", "conservative"],
             "99636582b501ef13e2297f78b594e954327bf2ffc4025553a4bae8071df4b32e"),
            (["eyecolour", "--method", "g", "--tie-policy", "conservative"],
             "3d019e4ac6d7b9b7feeb30fe49e7bcbe6b5f405cfeb544a3f96af253aa0aaf71"),
        ],
    )
    def test_test_command(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, ["test", "--dataset", *argv, "--seed", "11"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["power", "--family", "sparse", "--n", "60", "--reps", "70", "--B", "19",
              "--eps-grid", "0:0.02:2", "--tests", _ALL_TESTS, "--seed", "5"],
             "866cbe990a40766bd3b349467a8ffc78825bc62f3d6d2cf8da8ed389727f2363"),
            (["power", "--family", "dense", "--n", "40", "--reps", "70", "--B", "19",
              "--eps-grid", "0:0.02:2", "--tests", _ALL_TESTS, "--seed", "5"],
             "a19a788d129f0720482194f803082e52d9983f815ce38946d92c5f448583fa40"),
            (["subsample", "--dataset", "eyecolour", "--m", "84", "--reps", "70", "--B", "19",
              "--tests", _ALL_TESTS, "--seed", "4"],
             "40d1fa8ff9e721fd935c36a6d8b1e60e371d0a98a5a74bc9a7a2b1b788b8e346"),
            (["subsample", "--dataset", "eyecolour", "--m", "84", "--reps", "70", "--B", "19",
              "--tests", _ALL_TESTS, "--seed", "4", "--no-replace"],
             "fe001dd141dcebe79c73b0aaf198423823ecb7a83da24c6e05be57490c5bcdcf"),
            (["subsample", "--dataset", "marital", "--m", "100", "--reps", "70", "--B", "19",
              "--tests", _ALL_TESTS, "--seed", "4"],
             "938c95471d260ac16da7b3a08b82e6c639713e1f4b5b5fc2a84da72236cad0c0"),
            (["subsample", "--dataset", "marital", "--m", "100", "--reps", "70", "--B", "19",
              "--tests", _ALL_TESTS, "--seed", "4", "--no-replace"],
             "8f60b8fcd651ca05094e4b2db7ac1e120747379b7ea2f8f20d9be38145726271"),
            (["dhat", "--family", "sparse", "--n", "100", "--eps", "0.05", "--reps", "200",
              "--seed", "3"],
             "cbd1dc2256312ee8933d4d9201c05d0c1d2a95a16b68512ca0f3e8a84f12923c"),
        ],
    )
    def test_study_commands(self, capsys, argv, digest, threads):
        code, out, _ = run_cli(capsys, [*argv, "--threads", threads])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFamilyDefaults:
    @pytest.mark.parametrize(
        "family,dims", [("sparse", (5, 8)), ("dense", (6, 8)), ("multiplicative", (4, 4))]
    )
    def test_default_dims_match_explicit_ones(self, capsys, family, dims):
        explicit = ["--I", str(dims[0]), "--J", str(dims[1])]
        for argv in (
            ["power", "--family", family, "--n", "30", "--reps", "4", "--B", "19"],
            ["dhat", "--family", family, "--n", "20", "--reps", "6", "--seed", "2"],
        ):
            default = run_cli(capsys, argv)
            assert default[0] == 0 and default == run_cli(capsys, argv + explicit), argv


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
    def test_shuffled_study_keeps_output_across_a_real_pool(self, capsys, monkeypatch, pool_spy):
        # dense 6x8 at n = 100 shuffles its labels (100 observations over 35
        # free cells); 2 x 128 replicates x 99 tables x 48 cells = 1 216 512
        # cells, so --threads 2 starts two processes at the real threshold.
        # The null replicates stop drawing early, at points fixed by their
        # block, so the two workers print the same bytes.
        from usptest import permutation

        drawn = []
        permuted = permutation._permuted

        def permuted_spy(rows, cols, b, gen):
            drawn.append(len(rows) * b)
            return permuted(rows, cols, b, gen)

        monkeypatch.setattr(permutation, "_permuted", permuted_spy)
        argv = ["power", "--family", "dense", "--n", "100", "--reps", "128", "--B", "99",
                "--eps-grid", "0:0.01:2", "--tests", "usp,pearson-perm,g-perm,g-classic",
                "--seed", "5"]
        serial = run_cli(capsys, argv + ["--threads", "1"])
        assert 0 < sum(drawn) < 2 * 128 * 99  # counted in this process only
        assert pool_spy == []
        pooled = run_cli(capsys, argv + ["--threads", "2"])
        assert pool_spy == [("process", 2)]
        assert serial == pooled and serial[0] == 0

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_is_a_usage_error(self, capsys, threads):
        for argv in (["power", "--family", "sparse", "--n", "20", "--reps", "3"],
                     ["dhat", "--family", "sparse", "--n", "20", "--reps", "3"]):
            code, out, err = run_cli(capsys, argv + ["--threads", threads])
            assert code == 2 and out == ""
            assert f"error: threads must be >= 1, got {threads}" in err


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
