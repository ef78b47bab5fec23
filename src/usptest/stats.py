"""Population measures and test statistics.

Implements the chi-squared divergence between two distributions, the
dependence measure D (squared distance of a joint law from the product of
its margins), Pearson's chi-squared statistic, the G statistic, the USP
test statistic (U-hat) and the full unbiased estimator of D (D-hat).

U-hat and D-hat differ by terms that depend on the data only through the
margins, so over tables sharing margins (e.g. permuted tables) they induce
the same ranking; both may be negative even though D itself never is.

This is the one module that picks code by method name (``METHODS``): the
value of each method's statistic, the key that ranks it among tables with
fixed margins, and the Poisson limit law of each classic statistic under the
sparse 2x2 family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceUndefined,
    DomainError,
    SampleTooSmall,
    UndefinedStatistic,
)
from .table import ContingencyTable, JointDistribution

_INT64_MAX = 2**63 - 1

METHODS = ("usp", "pearson", "g")
_CLASSIC_METHODS = ("pearson", "g")  # the methods with a chi-squared reference law

__all__ = [
    "METHODS",
    "StatisticValue",
    "chi2_divergence",
    "dependence_measure",
    "pearson_statistic",
    "g_statistic",
    "usp_statistic",
    "dhat_statistic",
]


@dataclass(frozen=True)
class StatisticValue:
    """A computed test statistic tagged with its kind.

    ``pearson`` and ``g`` values are non-negative whenever defined; ``usp``
    and ``dhat`` estimate a non-negative quantity without bias and may
    therefore be negative.
    """

    value: float
    kind: str  # one of {"pearson", "g", "usp", "dhat"}

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# population measures
# ---------------------------------------------------------------------------


def chi2_divergence(p: JointDistribution, p_ref: JointDistribution) -> float:
    """Chi-squared divergence sum((p - p')^2 / p') of p from reference p'.

    Asymmetric in its arguments.  Cells where both distributions put zero
    mass contribute nothing; a cell with reference mass zero but p mass
    positive makes the divergence undefined.
    """
    if p.shape != p_ref.shape:
        raise DomainError(f"shape mismatch: {p.shape} vs {p_ref.shape}")
    a = p.probs
    b = p_ref.probs
    bad = (b == 0.0) & (a > 0.0)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise DivergenceUndefined(
            f"reference cell ({i},{j}) has zero probability but p has {a[i, j]!r}"
        )
    support = b > 0.0
    diff = a[support] - b[support]
    return float(np.sum(diff * diff / b[support]))


def dependence_measure(p: JointDistribution) -> float:
    """Squared distance of a joint law from the product of its margins.

    Zero exactly when the distribution factorizes (independence); positive
    otherwise.
    """
    diff = p.probs - np.outer(p.row_margins, p.col_margins)
    return float(np.sum(diff * diff))


# ---------------------------------------------------------------------------
# sample statistics
# ---------------------------------------------------------------------------


def _expected(counts: np.ndarray, n: int) -> np.ndarray:
    rows, cols = counts.sum(axis=-1), counts.sum(axis=-2)
    return rows[..., :, None] * cols[..., None, :] / float(n)


def _require_positive_margins(table: ContingencyTable, kind: str) -> None:
    if table.n == 0 or np.any(table.row_margins == 0) or np.any(table.col_margins == 0):
        raise UndefinedStatistic(
            f"{kind} statistic is undefined: the table has a zero row or column margin"
        )


def _cell_sum(terms: np.ndarray) -> np.ndarray:
    # sum over the trailing (I, J) axes as one contiguous run of I*J cells, so
    # each table of a batch sums in the same order as a single table
    *batch, I, J = terms.shape
    return terms.reshape(*batch, I * J).sum(axis=-1)


def _pearson_value(counts: np.ndarray, n: int) -> np.ndarray:
    # X^2 over the trailing (I, J) axes of one table or of a batch of tables
    # with common total n; every margin must be positive
    e = _expected(counts, n)
    diff = counts - e
    return _cell_sum(diff * diff / e)


def _g_value(counts: np.ndarray, n: int) -> np.ndarray:
    # G over the trailing (I, J) axes, as _pearson_value, with 0 log 0 = 0
    e = _expected(counts, n)
    return 2.0 * _cell_sum(counts * np.log(np.where(counts > 0, counts / e, 1.0)))


def pearson_statistic(table: ContingencyTable) -> StatisticValue:
    """Pearson's chi-squared statistic sum((o - e)^2 / e).

    Expected counts are e_ij = (row margin i)(column margin j)/n.  Undefined
    when any margin is zero, because then some e_ij = 0; zero rows or
    columns are an explicit error here, never silently dropped.
    """
    _require_positive_margins(table, "pearson")
    return StatisticValue(float(_pearson_value(table.counts, table.n)), "pearson")


def g_statistic(table: ContingencyTable) -> StatisticValue:
    """Likelihood-ratio statistic G = 2 sum(o log(o / e)), with 0 log 0 = 0.

    Same definedness condition as Pearson's statistic: any zero row or
    column margin raises UndefinedStatistic.
    """
    _require_positive_margins(table, "g")
    return StatisticValue(float(_g_value(table.counts, table.n)), "g")


def _require_sample(method: str, n: int) -> None:
    # U-hat divides by n(n-2)(n-3); pearson and g take any total
    if method == "usp" and n < 4:
        raise SampleTooSmall(f"usp statistic needs n >= 4, got n={n}")


def _usp_key_dtype(n: int):
    # every usp score, a value or a rank key, starts here, so each checks n.
    # The terms of _usp_key stay below 3n^3 in magnitude: int64 holds them up
    # to n of about 1.4 million, Python ints (object arrays) beyond
    _require_sample("usp", n)
    return np.int64 if 3 * n**3 <= _INT64_MAX else object


def _usp_key(o: np.ndarray, rc: np.ndarray, n: int) -> np.ndarray:
    # (n-2) sum(o^2) - 2 sum(o_ij r_i c_j) over the last axis, for cells o and
    # margin products rc of a dtype from _usp_key_dtype: an integer that ranks
    # like U-hat among tables with the same margins
    if o.ndim == 1 or o.dtype == object:
        # one table, or Python ints (einsum has no object loops before numpy 1.25)
        return (n - 2) * (o * o).sum(axis=-1) - 2 * (o * rc).sum(axis=-1)
    # over a batch, einsum reduces the short cell axis about 3x faster than sum
    return (n - 2) * np.einsum("...k,...k->...", o, o) - 2 * np.einsum("...k,...k->...", o, rc)


def _usp_value(counts: np.ndarray, n: int) -> float:
    # U-hat = (n^2 K + (n-2) sum(r_i^2) sum(c_j^2)) / (n^3 (n-2)(n-3)) with K
    # the integer _usp_key: exact integers rounded once, so tables with equal
    # keys and margins get equal floats
    o = counts.astype(_usp_key_dtype(n), copy=False)
    rows, cols = o.sum(axis=1), o.sum(axis=0)
    key = int(_usp_key(o.ravel(), np.outer(rows, cols).ravel(), n))
    r2, c2 = int((rows * rows).sum()), int((cols * cols).sum())
    return (n * n * key + (n - 2) * r2 * c2) / (n**3 * (n - 2) * (n - 3))


def _value(method: str, counts: np.ndarray, n: int):
    # the method's statistic on a table of total n (pearson and g also over a
    # batch); the value function is looked up at call time, so a rebound
    # module attribute is the one called
    return {"usp": _usp_value, "pearson": _pearson_value, "g": _g_value}[method](counts, n)


def _pearson_limit(z: np.ndarray, mu: float) -> np.ndarray:
    return (z - mu) ** 2 / mu


def _g_limit(z: np.ndarray, mu: float) -> np.ndarray:
    # 2 mu at z = 0, by 0 log 0 = 0
    return 2.0 * z * np.log(np.where(z > 0, z / mu, 1.0)) - 2.0 * (z - mu)


def _poisson_limit(method: str, z: np.ndarray, mu: float) -> np.ndarray:
    # the classic statistic's limit law under the sparse 2x2 family of
    # asymptotics.py, at counts z of the one cell whose count Z ~ Poisson(mu)
    # stays finite
    return {"pearson": _pearson_limit, "g": _g_limit}[method](z, mu)


def _rank_key(method: str, rows: np.ndarray, cols: np.ndarray, n: int):
    # For R source tables with margins rows (R, I) and cols (R, J) and the
    # common total n, returns key(tables, sl): a reduction from tables of
    # shape (k, b, I*J), permuted from the sources sl = slice(lo, hi), to
    # (k, b) keys that rank like the method's statistic among tables sharing
    # their source's margins; terms that depend on the margins alone drop out.
    rc = (rows[:, :, None] * cols[:, None, :]).reshape(len(rows), 1, -1)
    if method == "usp":
        dtype = _usp_key_dtype(n)
        rc = rc.astype(dtype, copy=False)
        return lambda o, sl: _usp_key(o.astype(dtype, copy=False), rc[sl], n)
    if method == "pearson":
        # X^2 = n sum(o^2 / (r_i c_j)) - n; cells of an empty row or column
        # are zero in every table and get weight 0
        with np.errstate(divide="ignore"):
            w = np.where(rc > 0, 1.0 / rc, 0.0)
        return lambda o, sl: ((o * o) * w[sl]).sum(axis=-1)
    # G = 2 sum(o log o) + margin-only terms, with 0 log 0 = 0
    return lambda o, sl: (o * np.log(np.maximum(o, 1))).sum(axis=-1)


def usp_statistic(table: ContingencyTable) -> StatisticValue:
    """USP test statistic U-hat.

    U-hat = sum((o - e)^2) / (n(n-3)) - 4 sum(o * e) / (n(n-2)(n-3)).
    Defined for any table with n >= 4, zero margins included; over tables
    sharing margins it ranks identically to the unbiased estimator D-hat.
    """
    return StatisticValue(_usp_value(table.counts, table.n), "usp")


def dhat_statistic(table: ContingencyTable) -> StatisticValue:
    """Unbiased estimator D-hat of the dependence measure.

    Equals U-hat plus three margin-only correction terms:

        D-hat = U-hat
                + (sum_i o_i+^2 + sum_j o_+j^2) / (n(n-1)(n-3))
                + (3n-2) (sum_i o_i+^2)(sum_j o_+j^2) / (n^3 (n-1)(n-2)(n-3))
                - n / ((n-1)(n-3))

    Unbiased for dependence_measure of the sampling law; requires n >= 4.
    """
    if table.n < 4:
        raise SampleTooSmall(f"dhat statistic needs n >= 4, got n={table.n}")
    n = float(table.n)
    # python floats throughout: margin power sums reach n^5 and would
    # overflow int64 aggregation for large n
    sum_row_sq = float(np.sum(table.row_margins.astype(np.float64) ** 2))
    sum_col_sq = float(np.sum(table.col_margins.astype(np.float64) ** 2))
    value = (
        _usp_value(table.counts, table.n)
        + (sum_row_sq + sum_col_sq) / (n * (n - 1.0) * (n - 3.0))
        + (3.0 * n - 2.0) * sum_row_sq * sum_col_sq / (n**3 * (n - 1.0) * (n - 2.0) * (n - 3.0))
        - n / ((n - 1.0) * (n - 3.0))
    )
    return StatisticValue(value, "dhat")
