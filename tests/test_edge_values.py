"""Seeded edge-value probe of the library's input rules.

Every size, test list, distribution and asymptotic level below is built from
one fixed list of atoms, and every raw matrix given to ``validate_table`` and
``JointDistribution`` from those atoms and a few more, in each dtype and
shape.  Each call either returns or raises a ``UspError`` with a message, and
no warning leaks.  Family dimensions and replicate counts are left out: a
large value there allocates, or runs, without bound.

The CLI's two byte inputs get the same treatment: seeded table files of
BOMs, line endings, NULs, signs, non-decimal numbers and ragged rows, and
each flag of each subcommand set to each of a list of string atoms.  A call
exits 0, or exits 2 with one ``error:`` line on stderr and nothing on stdout.
"""

import contextlib
import io
import time
import warnings

import numpy as np
import pytest

from usptest import (
    AlternativeFamily,
    JointDistribution,
    PermutationConfig,
    RandomStream,
    dhat_samples,
    power_curve,
    run_test,
    sample_table,
    size_curve,
    subsample,
    subsample_study,
    validate_table,
)
from usptest.cli import build_parser, main
from usptest.errors import UspError

ATOMS = (-1, 0, 1, 3, 2**63 - 1, 2**63, 2**64, 1.5, float("nan"), float("inf"), "3", None)
NUMERIC_ATOMS = tuple(x for x in ATOMS if isinstance(x, (int, float)))

LAW = JointDistribution(np.full((2, 2), 0.25))
TABLE = validate_table([[3, 1], [2, 4]])  # n = 10
FAMILY = AlternativeFamily("sparse")
CONFIG = PermutationConfig(B=9, alpha=0.2, seed=0)  # reps=1 throughout
TESTS = [("usp", "permutation"), ("pearson", "classic")]
VALID_PAIRS = (("usp", "permutation"), ("pearson", "classic"), ("g", "permutation"))

# one argument of one call per row: the atom goes in that argument, the
# others hold valid values
SLOTS = {
    "sample_table n": lambda x: sample_table(LAW, x, RandomStream(0)),
    "subsample m": lambda x: subsample(TABLE, x, RandomStream(0)),
    "power_curve n": lambda x: power_curve(FAMILY, [0.0], x, 1, TESTS, CONFIG),
    "dhat_samples n": lambda x: dhat_samples(FAMILY, x, 0.0, 1),
    "subsample_study m": lambda x: subsample_study(TABLE, x, 1, TESTS, CONFIG),
    "subsample_study m, no replace": lambda x: subsample_study(
        TABLE, x, 1, TESTS, CONFIG, replace=False
    ),
    "tests": lambda x: subsample_study(TABLE, 10, 1, x, CONFIG),
    "test entry": lambda x: power_curve(FAMILY, [0.0], 20, 1, [x], CONFIG),
    "run_test method": lambda x: run_test(TABLE, x, "permutation", CONFIG),
    "run_test mode": lambda x: run_test(TABLE, "pearson", x, CONFIG),
    "distribution cell": lambda x: JointDistribution([[x, 0.5], [0.25, 0.25]]),
    "distribution row": lambda x: JointDistribution([[x], [0.5, 0.5]]),
    "asymsize alpha": lambda x: size_curve("g", x, [1.0]),
}


def _outcome(call, x) -> str:
    # "ok", or the UspError's class name; anything else, a warning included,
    # fails the probe with the slot and the atom named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(x)
        except UspError as exc:
            assert str(exc), f"{call!r}({x!r}) raised an empty {type(exc).__name__}"
            return type(exc).__name__
    return "ok"


def _random_tests(gen: np.random.Generator) -> list:
    # a list of 0 to 3 entries: a valid pair, a bare atom, or a pair with one
    # atom in place of the method or the mode
    entries = []
    for _ in range(gen.integers(0, 4)):
        atom = ATOMS[gen.integers(len(ATOMS))]
        method, mode = VALID_PAIRS[gen.integers(len(VALID_PAIRS))]
        entries.append([(method, mode), atom, (atom, mode), (method, atom)][gen.integers(4)])
    return entries


def _random_law(gen: np.random.Generator) -> list:
    # a 2x2 matrix of atoms and valid probabilities, ragged one time in four
    cells = [ATOMS[gen.integers(len(ATOMS))] if gen.random() < 0.5 else 0.25 for _ in range(4)]
    return [cells[:2], cells[2:3]] if gen.random() < 0.25 else [cells[:2], cells[2:]]


# matrix atoms: the list above, the int64 and float limits, and numpy
# scalars and bools as entries; a matrix is filled with 1 or 0.25, so a
# table or a 2x2 law of valid cells is taken
MATRIX_ATOMS = ATOMS + (
    -(2**63), -(2**63) - 1, 2.0**63, 2**1024, -float("inf"), True,
    np.int64(3), np.float32(0.25), np.uint64(2**64 - 1), 0.25,
)
MATRIX_DTYPES = (None, np.int64, np.uint64, np.float16, np.float64, bool, object)
MATRIX_SHAPES = ((2, 2), (1, 3), (1, 1), (0, 2), (4,), (), (2, 2, 2), "ragged")


def _matrix_input(shape, dtype, atoms, fill=0.25, mask=None):
    # a raw matrix whose first cells hold atoms and the rest fill: a nested
    # list when dtype is None (0-d: the atom itself), else an array of that
    # dtype, masked where mask is true.  None when numpy cannot build it
    if shape == "ragged":
        nested = [[*atoms[:1], fill], [fill]]
    else:
        cells = np.full(int(np.prod(shape)), fill, dtype=object)
        cells[: len(atoms)] = atoms[: cells.size]
        nested = cells.reshape(shape).tolist()
    if dtype is None:
        return nested
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's own casts, not the library's
        try:
            raw = np.array(nested, dtype=dtype)
        except (TypeError, ValueError, OverflowError):
            return None
    return raw if mask is None else np.ma.array(raw, mask=np.resize(mask, raw.shape))


def _random_matrix(gen: np.random.Generator):
    # a matrix of 1 to 3 rows and columns (one time in eight another shape),
    # each cell an atom with probability 0.3, masked one time in four
    if gen.random() < 0.125:
        shape = MATRIX_SHAPES[gen.integers(len(MATRIX_SHAPES))]
    else:
        shape = tuple(gen.integers(1, 4, size=2))
    size = 3 if shape == "ragged" else int(np.prod(shape))
    fill = (1, 0.25)[gen.integers(2)]
    atoms = [
        MATRIX_ATOMS[gen.integers(len(MATRIX_ATOMS))] if gen.random() < 0.3 else fill
        for _ in range(size)
    ]
    dtype = MATRIX_DTYPES[gen.integers(len(MATRIX_DTYPES))]
    mask = gen.random(max(size, 1)) < 0.3 if gen.random() < 0.25 else None
    return _matrix_input(shape, dtype, atoms, fill, mask)


def _holds_bool(raw) -> bool:
    # whether a bool reaches the library as a bool: a bool array, or a bool
    # entry of an object array (numpy reads [[True, 2]] as int64 first)
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged
        return False
    if arr.dtype.kind == "O":
        return any(isinstance(v, (bool, np.bool_)) for v in arr.flat)
    return arr.dtype.kind == "b"


def _matrix_outcome(call, raw) -> str:
    # as _outcome, but anything other than a UspError is returned as a leak
    # to report with its input, rather than raised
    try:
        return _outcome(call, raw)
    except Exception as exc:  # a warning raised as an error included
        return f"leak {type(exc).__name__}: {exc}"


class TestEdgeValueProbe:
    @pytest.mark.parametrize("slot", sorted(SLOTS))
    def test_every_atom_returns_or_raises_a_usp_error(self, slot):
        outcomes = {repr(x): _outcome(SLOTS[slot], x) for x in ATOMS}
        # no slot takes every atom
        assert set(outcomes.values()) != {"ok"}, outcomes

    def test_sizes_past_the_int64_range_are_refused_by_their_own_rule(self):
        for x in (2**63, 2**64):
            for slot in ("sample_table n", "power_curve n", "dhat_samples n"):
                with pytest.raises(UspError, match=r"sample size must be below 2\^63"):
                    SLOTS[slot](x)
            # a subsample's size is bounded by its table's total
            for slot in ("subsample m", "subsample_study m", "subsample_study m, no replace"):
                with pytest.raises(UspError, match=f"subsample size {x} exceeds table total 10"):
                    SLOTS[slot](x)

    def test_asymsize_alpha_below_the_floor(self):
        # the numeric atoms scaled by 2^-60: 1, 3 and 1.5 fall below the
        # smallest level whose 1 - alpha is below 1
        for x in NUMERIC_ATOMS:
            outcome = _outcome(SLOTS["asymsize alpha"], x * 2.0**-60)
            assert outcome in ("ok", "DomainError"), (x, outcome)
        for x in (1, 3, 1.5):
            with pytest.raises(UspError, match="alpha must be at least"):
                size_curve("g", x * 2.0**-60, [1.0])

    def test_seeded_test_lists_and_laws(self):
        gen = np.random.default_rng(2023)
        seen = set()
        for _ in range(60):
            seen.add(_outcome(SLOTS["tests"], _random_tests(gen)))
            seen.add(_outcome(lambda law: JointDistribution(law), _random_law(gen)))
        # the draws reach both answers and more than one refusal
        assert "ok" in seen and len(seen - {"ok"}) >= 2, seen

    def test_matrix_inputs_return_or_raise_a_usp_error(self):
        start = time.perf_counter()
        gen = np.random.default_rng(2024)
        grid = [
            _matrix_input(shape, dtype, [atom])
            for shape in MATRIX_SHAPES
            for dtype in MATRIX_DTYPES
            for atom in MATRIX_ATOMS
        ]
        drawn = [_random_matrix(gen) for _ in range(600)]
        outcomes, bools_taken = {}, []
        for raw in grid + drawn:
            for call in (validate_table, JointDistribution):
                outcome = _matrix_outcome(call, raw)
                outcomes.setdefault(outcome, (call.__name__, raw))
                if outcome == "ok" and _holds_bool(raw):
                    bools_taken.append((call.__name__, raw))
        leaks = {k: v for k, v in outcomes.items() if k.startswith("leak")}
        assert leaks == {}
        # a bool is no count and no probability, in any dtype
        assert bools_taken == []
        # every rule is reached: values taken, and refused for each reason
        assert {"ok", "DomainError", "NegativeCount", "EmptyTable"} <= set(outcomes), outcomes
        assert time.perf_counter() - start < 2.0

    def test_probe_runs_in_under_two_seconds(self):
        start = time.perf_counter()
        for call in SLOTS.values():
            for x in ATOMS:
                _outcome(call, x)
        assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# the CLI's byte inputs
# ---------------------------------------------------------------------------


def _cli_outcome(argv) -> tuple[int, str]:
    # (exit code, stderr) of one in-process call; a traceback, a leaked
    # warning (raised as an error), stdout on a failure or a second error
    # line fails the probe with the call named
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if code == 0:
        assert errors == [], (argv, err.getvalue())
    else:
        assert (code, out.getvalue(), len(errors)) == (2, "", 1), (argv, err.getvalue())
    return code, err.getvalue()


# table-file cells: valid counts, and the spellings the reader refuses
CSV_CELLS = (
    b"1", b"2", b"3", b"0", b"17", b" 4 ", b"\t5", b"+3", b"-3", b"1e3", b"0x10", b"2.0",
    b"nan", b"1_0", b"", b"\x00", b"3;4", b"9" * 25, "\u0661".encode(), b"\xff",
)
CSV_VALID = 6  # the first cells are valid counts
BOM = b"\xef\xbb\xbf"
CSV_REFUSALS = ("not an integer", "columns, got", "cannot read", "no table rows")


def _random_csv(gen: np.random.Generator) -> bytes:
    # 0 to 3 rows of 1 to 4 cells, each cell valid two times in three, a row
    # one cell short or long one time in six, mixed line endings, a BOM
    # first one time in four (and one mid-file one time in ten), and blank
    # and comment lines
    width = int(gen.integers(1, 5))
    lines = []
    for _ in range(gen.integers(0, 4)):
        if gen.random() < 0.15:
            lines.append([b"", b"# a comment", b"  "][gen.integers(3)])
        cells = width + (int(gen.choice([-1, 1])) if gen.random() < 1 / 6 else 0)
        row = [
            CSV_CELLS[gen.integers(CSV_VALID if gen.random() < 2 / 3 else len(CSV_CELLS))]
            for _ in range(max(cells, 1))
        ]
        sep = [b", ", b";", b"\t"][gen.integers(3)] if gen.random() < 0.15 else b","
        lines.append(sep.join(row))
    ends = [[b"\n", b"\r\n", b"\r"][gen.integers(3)] for _ in lines]
    body = b"".join(line + end for line, end in zip(lines, ends))
    if gen.random() < 0.1:
        cut = int(gen.integers(len(body) + 1))
        body = body[:cut] + BOM + body[cut:]
    return (BOM if gen.random() < 0.25 else b"") + body


# argv atoms: each goes in one flag of a valid, fast call
ARGV_ATOMS = ("", "-1", "0", "nan", "1e3", str(2**63), "9" * 400)
BASE_ARGV = {
    "test": ["--dataset", "marital", "--B", "19"],
    "power": ["--family", "sparse", "--n", "20", "--eps-grid", "0:0.02:2", "--reps", "2", "--B", "19"],
    "asymsize": ["--test", "g", "--lambda", "1:2:3"],
    "subsample": ["--dataset", "marital", "--m", "20", "--reps", "2", "--B", "19"],
    "dhat": ["--family", "sparse", "--n", "20", "--reps", "3"],
}
# a large accepted value of these runs, or allocates, without bound
UNBOUNDED = {"--reps", "--B", "--I", "--J"}


def _flags(command: str) -> list[str]:
    # every flag of a subcommand that takes a value
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return [a.option_strings[-1] for a in sub._actions if a.option_strings and a.nargs != 0]


def _with_flag(command: str, flag: str, value: str) -> list[str]:
    # the base call with flag set to value; --input replaces --dataset
    base = list(BASE_ARGV[command])
    if flag == "--input":
        del base[base.index("--dataset") : base.index("--dataset") + 2]
    if flag in base:
        base[base.index(flag) + 1] = value
        return [command, *base]
    return [command, *base, flag, value]


class TestByteInputFuzz:
    def test_table_files_exit_0_or_2_with_one_error_line(self, tmp_path):
        gen = np.random.default_rng(2025)
        seen = set()
        for k in range(300):
            path = tmp_path / f"t{k}.csv"
            path.write_bytes(_random_csv(gen))
            code, err = _cli_outcome(["test", "--input", str(path), "--B", "19"])
            reader = [r for r in CSV_REFUSALS if r in err]
            seen.add("ok" if code == 0 else reader[0] if reader else "refused by the library")
        # valid files are read, and each of the reader's refusals is reached
        assert seen == {"ok", "refused by the library", *CSV_REFUSALS}, seen

    def test_every_flag_takes_each_atom_or_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # --out atoms write files here
        codes = {}
        for command in BASE_ARGV:
            assert _cli_outcome([command, *BASE_ARGV[command]])[0] == 0
            for flag in _flags(command):
                for atom in ARGV_ATOMS:
                    if flag in UNBOUNDED and len(atom) > 3:
                        continue
                    codes[command, flag, atom] = _cli_outcome(_with_flag(command, flag, atom))[0]
        # some atoms are valid values: a seed, an output file, an epsilon
        assert codes["power", "--seed", str(2**63)] == 0
        assert codes["test", "--out", "0"] == 0 and (tmp_path / "0").is_file()
        assert codes["test", "--out", ""] == 2
        assert codes["dhat", "--eps", "0"] == 0
        assert set(codes.values()) == {0, 2}
