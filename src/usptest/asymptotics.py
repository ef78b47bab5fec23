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

The size at one lambda is numerics' windowed Poisson-term sum at y = mu =
lambda^2 (h = 0) with a mask: the window's terms mu^z / z! at the z the
test rejects, over all of its terms.  The window grows with lambda, so
lambda is capped at 1000, where it spans about 24 000 points.  A whole grid
is one such sum, one row per lambda taken in increasing lambda, and a size
depends on its lambda alone, so the size at a single lambda is a one-point
grid.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .numerics import _require_alpha, _window_sums, chi2_quantile
from .stats import _CLASSIC_METHODS, _poisson_limit

__all__ = [
    "SizeCurvePoint",
    "size_curve",
    "size_curve_csv",
    "DEFAULT_LAMBDA_GRID",
    "ASYMSIZE_CSV_HEADER",
]

# resolves the visible oscillation of the size curves
DEFAULT_LAMBDA_GRID = np.linspace(0.05, 5.0, 500)

_LAMBDA_MAX = 1000.0  # largest lambda whose Poisson window is summed
# the smallest level whose 1 - alpha is below 1 in double precision
_ALPHA_MIN = math.nextafter(2.0**-54, 1.0)


class SizeCurvePoint(NamedTuple):
    """Asymptotic size of one classic test at one lambda.

    A named tuple, so it compares equal to the plain tuple of its fields.
    """

    lam: float
    alpha: float
    asymptotic_size: float
    test: str


ASYMSIZE_CSV_HEADER = "lambda,alpha,test,asymptotic_size"


def size_curve_csv(points: Sequence[SizeCurvePoint]) -> str:
    # a curve shares one alpha and one test object, so their text is formatted
    # once per run of points that hold the same objects, not once per row
    rows, run = [], None
    for lam, alpha, size, test in points:
        if run is None or alpha is not run[0] or test is not run[1]:
            run, middle = (alpha, test), f",{alpha!r},{test},"
        rows.append(f"{lam!r}{middle}{size!r}")
    return "\n".join([ASYMSIZE_CSV_HEADER, *rows]) + "\n"


def _critical_value(alpha: float) -> float:
    if 1.0 - alpha == 1.0:
        raise DomainError(
            f"alpha must be at least {_ALPHA_MIN!r}, below which 1 - alpha rounds to 1 "
            f"and the critical value is infinite, got {alpha}"
        )
    return chi2_quantile(1.0 - alpha, 1)


def _check_lambdas(lam: np.ndarray) -> None:
    # the first bad lambda in grid order; each is checked finite and capped
    # before positive
    capped = np.isfinite(lam) & (lam <= _LAMBDA_MAX)
    bad = ~capped | ~(lam > 0)
    if bad.any():
        i = int(np.argmax(bad))
        x = float(lam[i])
        if not capped[i]:
            raise DomainError(f"lambda must be finite and at most {_LAMBDA_MAX:g}, got {x}")
        raise DomainError(f"lambda must be positive, got {x}")


def _sizes(test: str, c: float, lam: np.ndarray) -> np.ndarray:
    # each lambda's Poisson(mu) mass of {z : limit statistic > c}: the share of
    # its window total that the mask keeps, rows taken in increasing lambda so
    # that the windows of one pass are about as wide
    _check_lambdas(lam)
    order = np.argsort(lam, kind="stable")
    # below lambda of about 1e-154, mu is subnormal or 0: the terms above
    # z = 0 are 0, and the limit statistics divide by mu, giving inf above
    # z = 0 (rejected) and 0 / 0 = nan at z = mu = 0 (not rejected).  Those
    # are the right limits, so numpy's warnings about them are silenced;
    # silencing changes no value
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, total, kept = _window_sums(
            (lam * lam)[order], 0.0, math.inf, lambda z, mu: _poisson_limit(test, z, mu) > c
        )
    return (kept / total)[np.argsort(order)]


def size_curve(
    test: str, alpha: float, lambda_grid: Iterable[float] | None = None
) -> list[SizeCurvePoint]:
    """Evaluate one test's asymptotic size over a grid of lambda values.

    Output order follows the grid.  Defaults to DEFAULT_LAMBDA_GRID.  The
    critical value is computed once for the whole curve, and all lambdas
    are evaluated together in chunked array passes.  A size outside [0, 1]
    raises DomainError.
    """
    if test not in _CLASSIC_METHODS:
        raise DomainError(f"unknown test {test!r}; expected one of {_CLASSIC_METHODS}")
    grid = [float(x) for x in (DEFAULT_LAMBDA_GRID if lambda_grid is None else lambda_grid)]
    alpha = _require_alpha(alpha)
    sizes = _sizes(test, _critical_value(alpha), np.array(grid))
    outside = ~((sizes >= 0.0) & (sizes <= 1.0))
    if outside.any():
        raise DomainError(f"size must lie in [0, 1], got {float(sizes[outside.argmax()])}")
    return list(map(SizeCurvePoint._make, zip(grid, repeat(alpha), sizes.tolist(), repeat(test))))
