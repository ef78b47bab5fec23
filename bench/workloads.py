"""The benchmark's workloads: generated input tables and fixed lists of CLI calls.

Everything here is a pure function of the workload name and the workload
seed.  The program only ever sees the generated table files and the
``--seed`` values written into each call's argument list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("single-table", "studies", "estimation")

PERM_TESTS = ("usp", "pearson", "g")
STUDY_TESTS = "usp,pearson-perm,g-perm,pearson-classic,g-classic"
PERM_TOKENS = "usp,pearson-perm,g-perm"

# single-table
TEST_B = 999
# studies: power calls keep a fixed program seed so that their 4-sigma size
# and power-ordering checks are decided once, not re-drawn on every workload
# seed (at reps=20 each size check alone has a 0.26% false-alarm rate)
POWER_SEED = 0
POWER_REPS = 20
POWER_B = 99
POWER_N = 100
SPARSE_ALT_EPS = 0.06
DENSE_ALT_EPS = 0.01
SUBSAMPLE_REPS = 4
SUBSAMPLE_B = 999
STUDY_THREADS = 2
# thread-invariance gate, run outside the timed phase
GATE_REPS = 12
# estimation
DHAT_REPS = 10_000
DHAT_N = 100
DHAT_EPS = {"sparse": 0.05, "dense": 0.01, "multiplicative": 0.5}
ASYM_ALPHAS = (0.05, 0.01)

# the classic p-value of this table underflows to 0.0 in the program
DIAGONAL = np.array([[500, 0], [0, 500]], dtype=np.int64)


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload round.

    ``tables`` is the number of tables the call draws and scores (permuted,
    sampled or subsampled), counted from its arguments.  ``table`` names the
    input table for ``test`` calls.  ``known_fault`` marks a call that fails
    its check because of a recorded fault in the program.  ``threads`` is
    the call's ``--threads``.
    """

    name: str
    argv: tuple[str, ...]
    tables: int
    table: str | None = None
    known_fault: bool = False
    threads: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    tables: dict[str, np.ndarray] = field(default_factory=dict)  # written as CSV
    ops: list[Op] = field(default_factory=list)
    gate: tuple[str, ...] | None = None  # study call compared at --threads 1 and 2


def _product_table(rng, n, row_w, col_w, need_zero=False):
    probs = np.outer(row_w / row_w.sum(), col_w / col_w.sum()).ravel()
    while True:
        counts = rng.multinomial(n, probs).reshape(len(row_w), len(col_w))
        ok = counts.sum(axis=1).all() and counts.sum(axis=0).all()
        if ok and (not need_zero or (counts == 0).any()):
            return counts.astype(np.int64)


def generated_tables(seed: int) -> dict[str, np.ndarray]:
    """The three generated single-table inputs, drawn from independence.

    Every margin is positive, so the classic tests are defined on all of
    them; the sparse table always has zero cells.
    """
    rng = np.random.default_rng([seed, 1])
    return {
        "t2x2": _product_table(rng, 40, rng.uniform(0.3, 0.7, 2), rng.uniform(0.3, 0.7, 2)),
        "sparse5x8": _product_table(
            rng, 60, 0.8 ** np.arange(5), 0.85 ** np.arange(8), need_zero=True
        ),
        "t10x12": _product_table(rng, 5000, rng.uniform(0.5, 1.5, 10), rng.uniform(0.5, 1.5, 12)),
    }


def _single_table(seed: int, input_dir: Path) -> Workload:
    wl = Workload("single-table", seed)
    generated = generated_tables(seed)
    wl.tables = {**generated, "diagonal": DIAGONAL}
    sources = [
        ("marital", ("--dataset", "marital")),
        ("eyecolour", ("--dataset", "eyecolour")),
    ] + [(name, ("--input", str(input_dir / f"{name}.csv"))) for name in generated]
    for table, source in sources:
        for method in PERM_TESTS:
            wl.ops.append(
                Op(
                    f"test-{table}-{method}-perm",
                    ("test", *source, "--method", method, "--B", str(TEST_B), "--seed", str(seed)),
                    tables=TEST_B,
                    table=table,
                )
            )
        for method in ("pearson", "g"):
            wl.ops.append(
                Op(
                    f"test-{table}-{method}-classic",
                    ("test", *source, "--method", method, "--mode", "classic"),
                    tables=0,
                    table=table,
                )
            )
    diag = ("--input", str(input_dir / "diagonal.csv"))
    for method in ("pearson", "g"):
        wl.ops.append(
            Op(
                f"test-diagonal-{method}-classic",
                ("test", *diag, "--method", method, "--mode", "classic"),
                tables=0,
                table="diagonal",
                known_fault=True,
            )
        )
    return wl


def _studies(seed: int, threads: int) -> Workload:
    wl = Workload("studies", seed)
    n_perm = len(PERM_TOKENS.split(","))
    for family, alt in (("sparse", SPARSE_ALT_EPS), ("dense", DENSE_ALT_EPS)):
        wl.ops.append(
            Op(
                f"power-{family}",
                (
                    "power", "--family", family, "--n", str(POWER_N),
                    "--eps-grid", f"0:{alt}:2", "--reps", str(POWER_REPS),
                    "--B", str(POWER_B), "--tests", STUDY_TESTS,
                    "--seed", str(POWER_SEED), "--threads", str(threads),
                ),
                tables=2 * POWER_REPS * (1 + n_perm * POWER_B),
                threads=threads,
            )
        )
    # eyecolour redraws with replacement (sample_table), marital draws without
    # (subsample), so both table-sampling paths are timed
    for dataset, m, replace in (("eyecolour", 84, ()), ("marital", 150, ("--no-replace",))):
        wl.ops.append(
            Op(
                f"subsample-{dataset}",
                (
                    "subsample", "--dataset", dataset, "--m", str(m), *replace,
                    "--reps", str(SUBSAMPLE_REPS), "--B", str(SUBSAMPLE_B),
                    "--tests", PERM_TOKENS, "--seed", str(seed),
                    "--threads", str(threads),
                ),
                tables=SUBSAMPLE_REPS * (1 + n_perm * SUBSAMPLE_B),
                threads=threads,
            )
        )
    wl.gate = (
        "power", "--family", "sparse", "--n", str(POWER_N), "--eps-grid", "0:0.06:2",
        "--reps", str(GATE_REPS), "--B", str(POWER_B), "--tests", PERM_TOKENS,
        "--seed", str(seed),
    )
    return wl


def _estimation(seed: int) -> Workload:
    wl = Workload("estimation", seed)
    for family, eps in DHAT_EPS.items():
        wl.ops.append(
            Op(
                f"dhat-{family}",
                (
                    "dhat", "--family", family, "--n", str(DHAT_N), "--eps", str(eps),
                    "--reps", str(DHAT_REPS), "--seed", str(seed), "--threads", "1",
                ),
                tables=DHAT_REPS,
            )
        )
    for test in ("pearson", "g"):
        for alpha in ASYM_ALPHAS:
            wl.ops.append(
                Op(f"asymsize-{test}-{alpha}", ("asymsize", "--test", test, "--alpha", str(alpha)), 0)
            )
    return wl


def build(name: str, seed: int, input_dir: Path, threads: int = STUDY_THREADS) -> Workload:
    """The workload's inputs and its fixed list of calls.

    ``threads`` sets ``--threads`` on the study calls; the traced run passes 1
    so that every span is recorded in the benchmark's own process.
    """
    if name == "single-table":
        return _single_table(seed, input_dir)
    if name == "studies":
        return _studies(seed, threads)
    if name == "estimation":
        return _estimation(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(wl: Workload, input_dir: Path) -> None:
    input_dir.mkdir(parents=True, exist_ok=True)
    for name, counts in wl.tables.items():
        rows = "\n".join(",".join(str(int(v)) for v in row) for row in counts)
        (input_dir / f"{name}.csv").write_text(f"# {name}\n{rows}\n", encoding="utf-8")
