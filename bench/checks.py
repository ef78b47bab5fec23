"""Output checks: every call's stdout against computations made apart from the
program, or against properties the method must have.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import binom, chi2, chi2_contingency, norm, poisson

import reference
import workloads as W

# "4 Monte Carlo standard errors", taken as the exact binomial quantile at
# the one-sided normal 4-sigma tail: at p near 0.003 (marital, usp) the
# normal approximation's 4 sigma would miss a Poisson tail of 0.4%
_TAIL = float(norm.sf(4.0))
_STAT_RTOL = 1e-9
_CLASSIC_P_RTOL = 1e-6  # relative: an underflowed p-value must not pass
_ASYM_TOL = 1e-9  # the program truncates the Poisson sum at 1 - 1e-12

_TEST_FIELDS = {"method", "mode", "statistic", "p_value", "reject", "alpha", "B", "df", "seed"}


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def expected(counts: np.ndarray) -> np.ndarray:
    return np.outer(counts.sum(axis=1), counts.sum(axis=0)) / counts.sum()


def paper_statistic(counts: np.ndarray, method: str) -> float:
    """U-hat, Pearson's X^2 and G from the paper's formulas, with empty rows and
    columns contributing nothing."""
    o = counts.astype(np.float64)
    n = o.sum()
    e = expected(counts)
    if method == "usp":
        return float(
            ((o - e) ** 2).sum() / (n * (n - 3)) - 4 * (o * e).sum() / (n * (n - 2) * (n - 3))
        )
    if method == "pearson":
        s = e > 0
        return float(((o[s] - e[s]) ** 2 / e[s]).sum())
    s = o > 0
    return float(2 * (o[s] * np.log(o[s] / e[s])).sum())


def pvalue_in_window(p: float, B: int, p_gt: float, p_ge: float, se_ref: float = 0.0) -> bool:
    """Is a randomized-tie permutation p-value consistent with the reference
    interval [P(T > t0), P(T >= t0)] at B permutations?

    ``p (B+1) - 1`` lies between #{T_b > t0} ~ Bin(B, p_gt) and
    #{T_b >= t0} ~ Bin(B, p_ge); the window is their 4-sigma binomial
    quantiles, widened by one count (the 1/(B+1) of the formula) and by
    4 standard errors of a sampled reference.
    """
    k = round(p * (B + 1)) - 1
    lo = binom.ppf(_TAIL, B, max(p_gt - 4 * se_ref, 0.0))
    hi = binom.isf(_TAIL, B, min(p_ge + 4 * se_ref, 1.0))
    return lo - 1 <= k <= hi + 1


def family_dependence(kind: str, eps: float) -> float:
    """D = sum (p_ij - q_i r_j)^2 of the alternative families, from their
    definitions in the README."""
    if kind == "sparse":
        q = 2.0 ** -np.arange(1, 6) / (1 - 2.0**-5)
        r = 2.0 ** -np.arange(1, 9) / (1 - 2.0**-8)
        p = np.outer(q, r)
        p[0, 0] += eps
        p[1, 1] += eps
        p[0, 1] -= eps
        p[1, 0] -= eps
    else:
        shape = (6, 8) if kind == "dense" else (4, 4)
        i, j = np.indices(shape) + 1
        sign = (-1.0) ** (i + j)
        if kind == "dense":
            p = 1.0 / (shape[0] * shape[1]) + sign * eps
        else:
            p = (1 + sign * eps) / 2.0 ** (i + j)
            p /= p.sum()
    return float(((p - np.outer(p.sum(axis=1), p.sum(axis=0))) ** 2).sum())


def asymptotic_size_bounds(test: str, alpha: float, lam: float) -> tuple[float, float]:
    """Asymptotic size from scipy's Poisson law and chi-squared quantile, with the
    critical value moved by 1e-9 relative either way (the program's own
    quantile is a bisection)."""
    c = chi2.ppf(1 - alpha, 1)
    mu = lam * lam
    z = np.arange(int(mu + 40 * math.sqrt(mu) + 40))
    pmf = poisson.pmf(z, mu)
    if test == "pearson":
        stat = (z - mu) ** 2 / mu
    else:
        safe = np.maximum(z, 1)
        stat = np.where(z == 0, 2 * mu, 2 * z * np.log(safe / mu) - 2 * (z - mu))
    sizes = [float(pmf[stat > c * f].sum()) for f in (1 + 1e-9, 1 - 1e-9)]
    return sizes[0], sizes[1]


def _csv(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r} != {header!r}")
    return [line.split(",") for line in lines[1:]]


class Checker:
    """Checks the calls of one workload; ``tables`` maps table names to counts."""

    def __init__(self, tables: dict[str, np.ndarray], refs: dict):
        self.tables = tables
        self.refs = refs["tables"]

    def check(self, argv: tuple[str, ...], table: str | None, rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            return getattr(self, "_" + argv[0])(argv, table, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    # -- test ---------------------------------------------------------------

    def _test(self, argv, table, stdout):
        res = json.loads(stdout)
        if set(res) != _TEST_FIELDS:
            return f"fields {sorted(res)}"
        counts = self.tables[table]
        method, mode = _arg(argv, "--method"), _arg(argv, "--mode", "permutation")
        if (res["method"], res["mode"]) != (method, mode):
            return f"method/mode {res['method']}/{res['mode']}"
        alpha = res["alpha"]
        if res["reject"] != (res["p_value"] <= alpha):
            return "reject disagrees with p_value <= alpha"
        if mode == "classic":
            return self._classic(counts, method, res)
        return self._permutation(counts, table, method, int(_arg(argv, "--B")), int(_arg(argv, "--seed")), res)

    def _classic(self, counts, method, res):
        lam = "log-likelihood" if method == "g" else None
        ref = chi2_contingency(counts, correction=False, lambda_=lam)
        if res["B"] is not None or res["df"] != ref.dof:
            return f"B={res['B']} df={res['df']}, expected None and {ref.dof}"
        if not _close(res["statistic"], ref.statistic, _STAT_RTOL):
            return f"statistic {res['statistic']!r} != scipy {ref.statistic!r}"
        if not _close(res["p_value"], ref.pvalue, _CLASSIC_P_RTOL):
            return f"p_value {res['p_value']!r} != scipy {ref.pvalue!r}"
        return None

    def _permutation(self, counts, table, method, B, seed, res):
        if res["B"] != B or res["df"] is not None or res["seed"] != seed:
            return f"B={res['B']} df={res['df']} seed={res['seed']}"
        want = paper_statistic(counts, method)
        if not _close(res["statistic"], want, _STAT_RTOL, 1e-12):
            return f"statistic {res['statistic']!r} != formula {want!r}"
        k = res["p_value"] * (B + 1)
        if abs(k - round(k)) > 1e-6 or not 1 <= round(k) <= B + 1:
            return f"p_value*(B+1) = {k!r} is not an integer in [1, B+1]"
        if table in self.refs:
            ref = self.refs[table]
            if ref["counts"] != counts.tolist():
                return f"{table} differs from the stored reference table; rerun bench/reference.py"
            ref = ref[method]
            if not pvalue_in_window(res["p_value"], B, ref["p_gt"], ref["p_ge"], ref["se"]):
                return f"p_value {res['p_value']} outside [{ref['p_gt']:.5f}, {ref['p_ge']:.5f}] window"
        elif counts.shape[0] == 2:
            lo, hi = reference.exact_interval(counts, method)
            if not pvalue_in_window(res["p_value"], B, lo, hi):
                return f"p_value {res['p_value']} outside exact [{lo:.5f}, {hi:.5f}] window"
        return None

    # -- studies ------------------------------------------------------------

    def _rates(self, rows, reps, tests):
        for row in rows:
            rate, se = float(row[-2]), float(row[-1])
            if abs(rate * reps - round(rate * reps)) > 1e-6:
                return f"rejection_rate {rate!r} is not a multiple of 1/{reps}"
            if not _close(se, math.sqrt(rate * (1 - rate) / reps), 1e-12, 1e-15):
                return f"std_err {se!r} != sqrt(r(1-r)/reps)"
        if [tuple(r[-4:-2]) for r in rows] != tests:
            return f"tests {[tuple(r[-4:-2]) for r in rows]}"
        return None

    def _power(self, argv, _table, stdout):
        rows = _csv(stdout, "epsilon,n,reps,method,mode,rejection_rate,std_err")
        reps, alpha = int(_arg(argv, "--reps")), 0.05
        tokens = _arg(argv, "--tests").split(",")
        tests = [_TOKENS[t] for t in tokens]
        lo, hi, count = _arg(argv, "--eps-grid").split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
        if [float(r[0]) for r in rows] != [e for e in grid for _ in tests]:
            return "epsilon column does not follow the grid"
        if any((int(r[1]), int(r[2])) != (int(_arg(argv, "--n")), reps) for r in rows):
            return "n/reps columns"
        bad = self._rates(rows, reps, tests * len(grid))
        if bad:
            return bad
        limit = alpha + 4 * math.sqrt(alpha * (1 - alpha) / reps)
        for r in rows:
            if float(r[0]) == 0.0 and r[4] == "permutation" and float(r[5]) > limit:
                return f"{r[3]} size {r[5]} at epsilon 0 exceeds {limit:.4f}"
        if _arg(argv, "--family") == "sparse":
            at = {r[3]: float(r[5]) for r in rows if float(r[0]) == W.SPARSE_ALT_EPS and r[4] == "permutation"}
            if not at["usp"] > at["pearson"]:
                return f"usp power {at['usp']} <= pearson-perm {at['pearson']} at sparse 0.06"
        return None

    def _subsample(self, argv, _table, stdout):
        rows = _csv(stdout, "m,reps,method,mode,rejection_rate,std_err")
        reps, m = int(_arg(argv, "--reps")), int(_arg(argv, "--m"))
        if any((int(r[0]), int(r[1])) != (m, reps) for r in rows):
            return "m/reps columns"
        return self._rates(rows, reps, [_TOKENS[t] for t in _arg(argv, "--tests").split(",")])

    # -- estimation ---------------------------------------------------------

    def _dhat(self, argv, _table, stdout):
        rows = _csv(stdout, "epsilon,n,rep,dhat")
        reps, eps, n = int(_arg(argv, "--reps")), float(_arg(argv, "--eps")), int(_arg(argv, "--n"))
        if len(rows) != reps or any(
            (float(r[0]), int(r[1]), int(r[2])) != (eps, n, i) for i, r in enumerate(rows)
        ):
            return "epsilon/n/rep columns"
        values = np.array([float(r[3]) for r in rows])
        d = family_dependence(_arg(argv, "--family"), eps)
        se = values.std(ddof=1) / math.sqrt(reps)
        if abs(values.mean() - d) > 4 * se:
            return f"mean D-hat {values.mean():.6g} is more than 4 SE ({se:.3g}) from D = {d:.6g}"
        return None

    def _asymsize(self, argv, _table, stdout):
        rows = _csv(stdout, "lambda,alpha,test,asymptotic_size")
        test, alpha = _arg(argv, "--test"), float(_arg(argv, "--alpha"))
        grid = np.linspace(0.05, 5.0, 500)
        if len(rows) != len(grid):
            return f"{len(rows)} rows, expected {len(grid)}"
        for lam, row in zip(grid, rows):
            if not _close(float(row[0]), lam, 1e-12) or float(row[1]) != alpha or row[2] != test:
                return f"row {row[:3]}"
            lo, hi = asymptotic_size_bounds(test, alpha, lam)
            size = float(row[3])
            if not min(lo, hi) - _ASYM_TOL <= size <= max(lo, hi) + _ASYM_TOL:
                return f"size {size!r} at lambda {lam:.4f} != scipy {lo!r}"
        return None


_TOKENS = {
    "usp": ("usp", "permutation"),
    "pearson-perm": ("pearson", "permutation"),
    "g-perm": ("g", "permutation"),
    "pearson-classic": ("pearson", "classic"),
    "g-classic": ("g", "classic"),
}
