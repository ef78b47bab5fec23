"""Reference tail probabilities for permutation p-values, made apart from the program.

With the margins fixed, each statistic ranks tables the same as a cellwise sum:

* usp ranks as the integer ``(n-2) sum o^2 - 2 sum o_ij r_i c_j``;
* pearson ranks as the rational ``sum o^2 / (r_i c_j)``;
* g ranks as ``sum o log o``, i.e. as the integer ``prod o^o``.

Keys are compared in floating point, and any table whose key lies within
1e-9 (relative) of the observed one is re-compared with the exact integer
or rational, so true ties are ties and nothing else is.

For a table with observed statistic t0 the permutation p-value estimates a
value in the exact conditional interval [P(T > t0), P(T >= t0)].  Two-row
tables are enumerated outright; larger tables use this module's own
label-shuffle sampler (expand to n observations, shuffle the column labels,
re-tabulate) at a large number of draws.

    python3 bench/reference.py

rewrites ``bench/references.json`` for the embedded ``eyecolour`` table
(exact) and ``marital`` table (label shuffle, SHUFFLE_DRAWS draws).
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import gammaln, xlogy

METHODS = ("usp", "pearson", "g")
REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"
SHUFFLE_DRAWS = 1_000_000
SHUFFLE_SEED = 20210126
_BATCH = 20_000


def _float_keys(tables: np.ndarray, r: np.ndarray, c: np.ndarray, method: str) -> np.ndarray:
    if method == "usp":
        n = int(r.sum())
        rc = np.outer(r, c)
        return (n - 2) * (tables * tables).sum(axis=(1, 2)) - 2 * (tables * rc).sum(axis=(1, 2))
    if method == "pearson":
        return (tables.astype(np.float64) ** 2 / np.outer(r, c)).sum(axis=(1, 2))
    return xlogy(tables, tables).sum(axis=(1, 2))


def _exact_key(table: np.ndarray, r: np.ndarray, c: np.ndarray, method: str):
    cells = [(int(table[i, j]), int(r[i]) * int(c[j])) for i in range(len(r)) for j in range(len(c))]
    if method == "usp":
        n = int(r.sum())
        return (n - 2) * sum(o * o for o, _ in cells) - 2 * sum(o * rc for o, rc in cells)
    if method == "pearson":
        return sum(Fraction(o * o, rc) for o, rc in cells if rc)
    return math.prod(o**o for o, _ in cells)


def tail_counts(
    tables: np.ndarray, weights: np.ndarray, observed: np.ndarray, method: str
) -> tuple[float, float]:
    """Total weight of the tables with key > and >= the observed table's key."""
    r, c = observed.sum(axis=1), observed.sum(axis=0)
    keys = _float_keys(tables, r, c, method)
    k0 = _float_keys(observed[None], r, c, method)[0]
    if method == "usp":  # int64 keys are already exact
        return float(weights[keys > k0].sum()), float(weights[keys >= k0].sum())
    near = np.abs(keys - k0) <= 1e-9 * max(1.0, abs(float(k0)))
    gt = (keys > k0) & ~near
    ge = gt.copy()
    e0 = _exact_key(observed, r, c, method)
    near_idx = np.flatnonzero(near)
    if near_idx.size:
        uniq, inverse = np.unique(tables[near_idx], axis=0, return_inverse=True)
        exact = [_exact_key(t, r, c, method) for t in uniq]
        for idx, u in zip(near_idx, inverse.ravel()):
            gt[idx] = exact[u] > e0
            ge[idx] = exact[u] >= e0
    return float(weights[gt].sum()), float(weights[ge].sum())


def two_row_tables(observed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every 2 x J table with the observed margins, and its probability under
    the permutation (multivariate hypergeometric) law."""
    if observed.shape[0] != 2:
        raise ValueError("enumeration is implemented for two-row tables only")
    c = observed.sum(axis=0)
    r1, n = int(observed[0].sum()), int(c.sum())
    rows = np.zeros((1, 0), dtype=np.int64)
    for j, cj in enumerate(c):
        rest = int(c[j + 1 :].sum())
        cand = np.hstack(
            [np.repeat(rows, cj + 1, axis=0), np.tile(np.arange(cj + 1), len(rows))[:, None]]
        )
        s = cand.sum(axis=1)
        rows = cand[(s <= r1) & (s + rest >= r1)]
    tables = np.stack([rows, c - rows], axis=1)
    logw = (gammaln(c + 1) - gammaln(rows + 1) - gammaln(c - rows + 1)).sum(axis=1)
    logw -= gammaln(n + 1) - gammaln(r1 + 1) - gammaln(n - r1 + 1)
    return tables, np.exp(logw)


def exact_interval(observed: np.ndarray, method: str) -> tuple[float, float]:
    """[P(T > t0), P(T >= t0)] by enumerating a two-row table's permutation law."""
    tables, weights = two_row_tables(observed)
    return tail_counts(tables, weights, observed, method)


def shuffle_tables(observed: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` tables from re-pairing shuffled column labels with the row labels."""
    n_rows, n_cols = observed.shape
    rows = np.repeat(np.arange(n_rows), observed.sum(axis=1))
    cols = np.repeat(np.arange(n_cols), observed.sum(axis=0))
    shuffled = rng.permuted(np.tile(cols, (size, 1)), axis=1)
    cells = rows * n_cols + shuffled + (np.arange(size) * n_rows * n_cols)[:, None]
    flat = np.bincount(cells.ravel(), minlength=size * n_rows * n_cols)
    return flat.reshape(size, n_rows, n_cols)


def shuffle_interval(observed: np.ndarray, method: str, draws: int, seed: int):
    """Label-shuffle estimates of [P(T > t0), P(T >= t0)] and their standard error."""
    rng = np.random.default_rng(seed)
    gt = ge = 0.0
    for start in range(0, draws, _BATCH):
        size = min(_BATCH, draws - start)
        tables = shuffle_tables(observed, size, rng)
        a, b = tail_counts(tables, np.ones(size), observed, method)
        gt += a
        ge += b
    p_gt, p_ge = gt / draws, ge / draws
    return p_gt, p_ge, math.sqrt(max(p_ge * (1.0 - p_ge), p_gt * (1.0 - p_gt)) / draws)


def make_references(datasets: dict[str, np.ndarray]) -> dict:
    eye, marital = datasets["eyecolour"], datasets["marital"]
    out = {
        "command": "python3 bench/reference.py",
        "shuffle_draws": SHUFFLE_DRAWS,
        "shuffle_seed": SHUFFLE_SEED,
        "tables": {
            "eyecolour": {"counts": eye.tolist(), "kind": "exact enumeration"},
            "marital": {"counts": marital.tolist(), "kind": f"label shuffle, {SHUFFLE_DRAWS} draws"},
        },
    }
    for method in METHODS:
        lo, hi = exact_interval(eye, method)
        out["tables"]["eyecolour"][method] = {"p_gt": lo, "p_ge": hi, "se": 0.0}
        lo, hi, se = shuffle_interval(marital, method, SHUFFLE_DRAWS, SHUFFLE_SEED)
        out["tables"]["marital"][method] = {"p_gt": lo, "p_ge": hi, "se": se}
    return out


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from usptest.datasets import EYECOLOUR, MARITAL

    refs = make_references(
        {"eyecolour": np.array(EYECOLOUR.table.counts), "marital": np.array(MARITAL.table.counts)}
    )
    REFERENCE_FILE.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    for table, ref in refs["tables"].items():
        for method in METHODS:
            print(f"{table:10s} {method:8s} P(T>t0)={ref[method]['p_gt']:.6f} P(T>=t0)={ref[method]['p_ge']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
