"""Exact asymptotic Type I error of the classic tests under a sparse 2x2 family.

For the 2x2 cell-probability family

    [[p^2, p(1-p)], [p(1-p), (1-p)^2]],   p = lambda / sqrt(n),

the classic Pearson and G tests do not approach their nominal level as
n grows.  The cell counts concentrate in one cell and the statistic's
limiting law is driven by Z ~ Poisson(lambda^2):

    Pearson:  (Z - lambda^2)^2 / lambda^2
    G:        2 Z log(Z / lambda^2) - 2 (Z - lambda^2),  with 0 log 0 = 0.

The asymptotic size at nominal level alpha is the probability that the
limit variable exceeds the chi-squared(1) critical value c_alpha.  Both
curves oscillate in lambda instead of settling at alpha, with jump
discontinuities where the z = 0 atom enters or leaves the rejection region
(lambda = sqrt(c_alpha / 2) for G, lambda = sqrt(c_alpha) for Pearson).

The size at one lambda is summed over a window of Z around its mean mu =
lambda^2, 12 (lambda + 1) wide on each side; Poisson mass outside it is
below 1e-26.  The window's weights come from the ratio
w(z+1) / w(z) = mu / (z+1) in log space, anchored at the mode, and are
normalized by their sum.  The window grows with lambda, so lambda is capped
at 1000, where it spans about 24 000 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .numerics import chi2_quantile
from .stats import _CLASSIC_METHODS, _poisson_limit

__all__ = [
    "SizeCurvePoint",
    "pearson_asymptotic_size",
    "g_asymptotic_size",
    "size_curve",
    "size_curve_csv",
    "DEFAULT_LAMBDA_GRID",
    "ASYMSIZE_CSV_HEADER",
]

# resolves the visible oscillation of the size curves
DEFAULT_LAMBDA_GRID = np.linspace(0.05, 5.0, 500)

_LAMBDA_MAX = 1000.0  # largest lambda whose Poisson window is summed
_WINDOW_HALF_WIDTH = 12.0  # window half-width, in units of lambda + 1


@dataclass(frozen=True)
class SizeCurvePoint:
    """Asymptotic size of one classic test at one lambda."""

    lam: float
    alpha: float
    asymptotic_size: float
    test: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.asymptotic_size <= 1.0):
            raise DomainError(f"size must lie in [0, 1], got {self.asymptotic_size}")


ASYMSIZE_CSV_HEADER = "lambda,alpha,test,asymptotic_size"


def size_curve_csv(points: Sequence[SizeCurvePoint]) -> str:
    rows = [f"{pt.lam!r},{pt.alpha!r},{pt.test},{pt.asymptotic_size!r}" for pt in points]
    return "\n".join([ASYMSIZE_CSV_HEADER, *rows]) + "\n"


def _critical_value(alpha: float) -> float:
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return chi2_quantile(1.0 - alpha, 1)


def _size(test: str, c: float, lam: float) -> float:
    # Poisson(lambda^2) mass of {z : limit statistic > c}, over the window
    if not (math.isfinite(lam) and lam <= _LAMBDA_MAX):
        raise DomainError(f"lambda must be finite and at most {_LAMBDA_MAX:g}, got {lam}")
    if not (lam > 0):
        raise DomainError(f"lambda must be positive, got {lam}")
    mu = lam * lam
    half = _WINDOW_HALF_WIDTH * (lam + 1.0)
    lo, mode = max(0, math.floor(mu - half)), math.floor(mu)
    z = np.arange(lo, math.ceil(mu + half) + 1, dtype=np.float64)
    # log w from the ratio recurrence, anchored at the mode, where w is
    # largest: log w <= 0, and the sums run outward from the bulk of the mass
    m = mode - lo
    log_w = np.zeros(len(z))
    log_w[m + 1 :] = np.cumsum(np.log(mu / z[m + 1 :]))
    log_w[:m] = np.cumsum(np.log(z[m:0:-1] / mu))[::-1]
    w = np.exp(log_w)
    return float(w[_poisson_limit(test, z, mu) > c].sum() / w.sum())


def pearson_asymptotic_size(lam: float, alpha: float) -> float:
    """Limiting rejection probability of classic Pearson at level alpha.

    Returns P((Z - lambda^2)^2 / lambda^2 > c_alpha) for Z ~ Poisson(lambda^2),
    where c_alpha is the (1-alpha) chi-squared(1) quantile, summed over the
    normalized Poisson window; 0 < lambda <= 1000.  Rejection uses
    strict inequality, matching the classic rule statistic > c.
    """
    return _size("pearson", _critical_value(alpha), lam)


def g_asymptotic_size(lam: float, alpha: float) -> float:
    """Limiting rejection probability of the classic G test at level alpha.

    Returns P(2 Z log(Z / lambda^2) - 2 (Z - lambda^2) > c_alpha) for
    Z ~ Poisson(lambda^2) with the 0 log 0 = 0 convention (the statistic is
    2 lambda^2 at z = 0), summed over the normalized Poisson window;
    0 < lambda <= 1000.
    """
    return _size("g", _critical_value(alpha), lam)


def size_curve(
    test: str, alpha: float, lambda_grid: Iterable[float] | None = None
) -> list[SizeCurvePoint]:
    """Evaluate one test's asymptotic size over a grid of lambda values.

    Output order follows the grid.  Defaults to DEFAULT_LAMBDA_GRID.  The
    critical value is computed once for the whole curve.
    """
    if test not in _CLASSIC_METHODS:
        raise DomainError(f"unknown test {test!r}; expected one of {_CLASSIC_METHODS}")
    grid: Sequence[float] = (
        DEFAULT_LAMBDA_GRID if lambda_grid is None else [float(x) for x in lambda_grid]
    )
    c = _critical_value(alpha)
    return [
        SizeCurvePoint(lam=float(lam), alpha=alpha, asymptotic_size=_size(test, c, float(lam)), test=test)
        for lam in grid
    ]
