"""Command-line interface.

Subcommands:

* ``test``       run one independence test on a table, report JSON
* ``power``      Monte Carlo power curve over an epsilon grid, report CSV
* ``asymsize``   asymptotic size curve of a classic test, report CSV
* ``subsample``  repeated m-of-n subsampling study on a table, report CSV
* ``dhat``       raw samples of the unbiased dependence estimator, report CSV

Exit codes: 0 success, 2 usage/parse/validation error, 3 statistic undefined
(zero row or column margin in classic mode, on a table of at least 2x2).
Every command is byte-identical for identical invocations: all but asymsize
take --seed, and asymsize draws nothing at random.  --threads only changes
runtime, never output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings
from typing import Sequence

import numpy as np

from .asymptotics import DEFAULT_LAMBDA_GRID, size_curve, size_curve_csv
from .datasets import DATASET_NAMES, get_dataset
from .errors import UndefinedStatistic, UspError
from .permutation import _TIE_POLICIES, MODES, PermutationConfig, run_test
from .simulate import (
    _FAMILIES,
    AlternativeFamily,
    dhat_samples,
    dhat_samples_csv,
    power_curve,
    power_curve_csv,
    subsample_study,
    subsample_study_csv,
)
from .stats import _CLASSIC_METHODS, METHODS
from .table import ContingencyTable, validate_table

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_UNDEFINED = 3
_INTEGER = re.compile(r"[+-]?[0-9]+")  # a CSV cell; int() also reads "1_0" and non-ASCII digits

_TEST_TOKENS = {
    "usp": ("usp", "permutation"),
    "pearson-perm": ("pearson", "permutation"),
    "g-perm": ("g", "permutation"),
    "pearson-classic": ("pearson", "classic"),
    "g-classic": ("g", "classic"),
}


class _UsageError(Exception):
    """Invalid command-line input; reported on stderr with exit code 2."""


def _read_table_csv(path: str) -> ContingencyTable:
    """Parse a table file: comma-separated non-negative integers, one row per
    line, blank lines and #-comment lines ignored, no header, UTF-8 with or
    without a byte-order mark."""
    rows: list[list[int]] = []
    width = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        cells = [c.strip() for c in text.split(",")]
        row = []
        for colno, cell in enumerate(cells, start=1):
            if not _INTEGER.fullmatch(cell):
                raise _UsageError(
                    f"{path}: line {lineno}, column {colno}: not an integer: {cell!r}"
                )
            row.append(int(cell))
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _UsageError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise _UsageError(f"{path}: no table rows found")
    return validate_table(rows)


def _resolve_table(args) -> ContingencyTable:
    if args.dataset is not None:
        return get_dataset(args.dataset).table
    return _read_table_csv(args.input)


def _parse_grid(spec: str, name: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--{name} expects lo:hi:count, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"--{name} expects numeric lo:hi:count, got {spec!r}") from None
    if not math.isfinite(hi - lo):
        raise _UsageError(f"--{name} needs finite lo, hi and hi - lo, got {spec!r}")
    if count < 1:
        raise _UsageError(f"--{name} needs count >= 1, got {count}")
    if hi < lo:
        raise _UsageError(f"--{name} needs hi >= lo, got {spec!r}")
    try:
        return np.linspace(lo, hi, count)
    except (ValueError, MemoryError):  # numpy refuses a grid it cannot allocate
        raise _UsageError(f"--{name} count {count} is too large for a grid") from None


def _parse_tests(spec: str) -> list[tuple[str, str]]:
    tests = []
    for token in spec.split(","):
        token = token.strip()
        if token not in _TEST_TOKENS:
            raise _UsageError(
                f"unknown test {token!r}; choose from {', '.join(sorted(_TEST_TOKENS))}"
            )
        tests.append(_TEST_TOKENS[token])
    return tests


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from None


def _warn_undefined(rates) -> None:
    for rate in rates:
        if rate.undefined_count:
            print(
                f"note: {rate.undefined_count} replicate(s) had an undefined "
                f"{rate.method} statistic in classic mode (zero margin); "
                f"counted as non-rejections",
                file=sys.stderr,
            )


def _permutation_config(tests: list[tuple[str, str]], **fields) -> PermutationConfig:
    # the library warns at its caller's line when no permutation p-value can
    # reach alpha; the CLI prints that warning as one note line, and only
    # when a permutation test runs, since a classic test can still reject
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = PermutationConfig(**fields)
    if any(mode == "permutation" for _, mode in tests):
        for warning in caught:
            print(f"note: {warning.message}", file=sys.stderr)
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_test(args) -> int:
    table = _resolve_table(args)
    config = _permutation_config(
        [(args.method, args.mode)],
        B=args.B, alpha=args.alpha, seed=args.seed, tie_policy=args.tie_policy,
    )
    result = run_test(table, args.method, args.mode, config)
    _emit(json.dumps(vars(result), indent=2) + "\n", args.out)
    return _EXIT_OK


def _cmd_power(args) -> int:
    family = AlternativeFamily(kind=args.family, I=args.I, J=args.J)
    grid = (
        _parse_grid(args.eps_grid, "eps-grid")
        if args.eps_grid is not None
        else family.default_eps_grid()
    )
    tests = _parse_tests(args.tests)
    config = _permutation_config(tests, B=args.B, alpha=args.alpha, seed=args.seed)
    points = power_curve(
        family,
        grid,
        n=args.n,
        reps=args.reps,
        tests=tests,
        config=config,
        threads=args.threads,
    )
    _emit(power_curve_csv(points), args.out)
    for pt in points:
        _warn_undefined(pt.rates)
    return _EXIT_OK


def _cmd_asymsize(args) -> int:
    grid = (
        _parse_grid(args.lambda_grid, "lambda")
        if args.lambda_grid is not None
        else DEFAULT_LAMBDA_GRID
    )
    _emit(size_curve_csv(size_curve(args.test, args.alpha, grid)), args.out)
    return _EXIT_OK


def _cmd_subsample(args) -> int:
    table = _resolve_table(args)
    tests = _parse_tests(args.tests)
    config = _permutation_config(tests, B=args.B, alpha=args.alpha, seed=args.seed)
    study = subsample_study(
        table,
        m=args.m,
        reps=args.reps,
        tests=tests,
        config=config,
        threads=args.threads,
        replace=not args.no_replace,
    )
    _emit(subsample_study_csv(study), args.out)
    _warn_undefined(study.rates)
    return _EXIT_OK


def _cmd_dhat(args) -> int:
    family = AlternativeFamily(kind=args.family, I=args.I, J=args.J)
    values = dhat_samples(
        family, n=args.n, epsilon=args.eps, reps=args.reps, seed=args.seed, threads=args.threads
    )
    _emit(dhat_samples_csv(args.eps, args.n, values), args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_table_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", choices=DATASET_NAMES, help="embedded dataset name")
    group.add_argument("--input", metavar="PATH", help="CSV table file (no header, # comments ok)")


def _add_family(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    sub.add_argument("--I", type=int, default=None, help="rows (default per family)")
    sub.add_argument("--J", type=int, default=None, help="columns (default per family)")
    sub.add_argument("--n", type=int, default=100, help="observations per table")


def _add_tests(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tests",
        default="usp,pearson-perm,g-perm",
        help=f"comma list from: {', '.join(_TEST_TOKENS)}",
    )


def _add_common_sim(sub: argparse.ArgumentParser, default_reps: int, default_b: int) -> None:
    sub.add_argument("--reps", type=int, default=default_reps, help="Monte Carlo replicates")
    sub.add_argument("--B", type=int, default=default_b, help="permutations per test")
    sub.add_argument("--alpha", type=float, default=0.05, help="nominal level")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument(
        "--threads", type=int, default=1,
        help="upper bound on workers (default 1): a mid-size study runs on threads, a large "
        "one on processes, a small one on none; never changes output",
    )
    sub.add_argument("--out", metavar="PATH", default=None, help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usptest",
        description="Independence tests for contingency tables: USP permutation test, "
        "Pearson chi-squared and G tests (classic or permutation), plus "
        "simulation and asymptotic-size studies.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_test = commands.add_parser("test", help="run one test on one table, print JSON")
    _add_table_source(p_test)
    p_test.add_argument("--method", choices=METHODS, default="usp")
    p_test.add_argument("--mode", choices=MODES, default="permutation")
    p_test.add_argument("--B", type=int, default=999, help="permutations (permutation mode)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--tie-policy", choices=_TIE_POLICIES, default="randomized")
    p_test.add_argument("--out", metavar="PATH", default=None)
    p_test.set_defaults(handler=_cmd_test)

    p_power = commands.add_parser("power", help="Monte Carlo power curve, print CSV")
    _add_family(p_power)
    p_power.add_argument(
        "--eps-grid", metavar="LO:HI:K", default=None, help="epsilon grid (default per family)"
    )
    _add_tests(p_power)
    _add_common_sim(p_power, default_reps=1000, default_b=99)
    p_power.set_defaults(handler=_cmd_power)

    p_asym = commands.add_parser("asymsize", help="asymptotic size curve, print CSV")
    p_asym.add_argument("--test", choices=_CLASSIC_METHODS, required=True)
    p_asym.add_argument("--alpha", type=float, default=0.05)
    p_asym.add_argument(
        "--lambda", dest="lambda_grid", metavar="LO:HI:K", default=None,
        help="lambda grid (default 0.05:5:500)",
    )
    p_asym.add_argument("--out", metavar="PATH", default=None)
    p_asym.set_defaults(handler=_cmd_asymsize)

    p_sub = commands.add_parser("subsample", help="m-of-n subsampling study, print CSV")
    _add_table_source(p_sub)
    p_sub.add_argument("--m", type=int, required=True, help="subsample size")
    p_sub.add_argument(
        "--no-replace",
        action="store_true",
        help="draw subsamples without replacement (default: i.i.d. redraws "
        "from the table's empirical distribution)",
    )
    _add_tests(p_sub)
    _add_common_sim(p_sub, default_reps=1000, default_b=99)
    p_sub.set_defaults(handler=_cmd_subsample)

    p_dhat = commands.add_parser("dhat", help="raw unbiased-estimator samples, print CSV")
    _add_family(p_dhat)
    p_dhat.add_argument("--eps", type=float, default=0.0)
    p_dhat.add_argument("--reps", type=int, default=1000)
    p_dhat.add_argument("--seed", type=int, default=0)
    p_dhat.add_argument(
        "--threads", type=int, default=1,
        help="upper bound on worker processes (default 1), one per 2000 replicates; "
        "never changes output",
    )
    p_dhat.add_argument("--out", metavar="PATH", default=None)
    p_dhat.set_defaults(handler=_cmd_dhat)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call, not at import, and reused by every later
    # call: building it costs more than most parses, and parse_args keeps no
    # state between calls
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed a message
        return int(exc.code) if exc.code is not None else _EXIT_OK
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except UndefinedStatistic as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNDEFINED
    except UspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
