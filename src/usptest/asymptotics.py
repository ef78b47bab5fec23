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

A whole grid is evaluated in 2-D array passes, one row per lambda's window,
in chunks of rows taken in increasing lambda.  A chunk holds at most
_CHUNK_CELLS = 2^13 cells of padded windows, or one window where that is
wider (lambda above about 340), so memory stays bounded for any grid.
Both masses of a row are summed sequentially in order of z, which keeps a
size independent of the grid it is evaluated in; single points
(pearson_asymptotic_size, g_asymptotic_size) are one-point grids.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .numerics import _require_alpha, chi2_quantile
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
# padded window cells per array pass.  It bounds the temporaries, and at
# 64 KiB a float64 temporary stays below glibc's default 128 KiB mmap
# threshold, so a pass reuses heap memory instead of faulting in fresh pages
_CHUNK_CELLS = 2**13


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
    _require_alpha(alpha)
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


def _chunks(below: np.ndarray, above: np.ndarray):
    # [start, stop) runs of rows whose windows, padded to the run's widest
    # reach below and above the mode, hold at most _CHUNK_CELLS cells (one
    # row at least); a run has no more rows than its first row's width allows
    start = 0
    while start < len(below):
        end = start + _CHUNK_CELLS // (below[start] + 1 + above[start])
        width = np.maximum.accumulate(below[start:end]) + np.maximum.accumulate(above[start:end])
        cells = np.arange(1, len(width) + 1) * (width + 1)
        stop = start + max(1, int(np.searchsorted(cells, _CHUNK_CELLS, side="right")))
        yield start, stop
        start = stop


def _window_sizes(
    test: str, c: float, mu: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    # Poisson(mu) mass of {z : limit statistic > c} over each row's window
    # [lo, hi].  Rows are laid out around their modes: column k holds
    # z = mode - left + k, so every mode sits in column `left`, and padding
    # outside a row's window weighs 0
    mode = np.floor(mu)
    left, right = int((mode - lo).max()), int((hi - mode).max())
    mu = mu[:, None]
    z = mode[:, None] + np.arange(-left, right + 1.0)
    inside = (z >= lo[:, None]) & (z <= hi[:, None])
    # log w from the ratio recurrence w(z+1)/w(z) = mu/(z+1), anchored at the
    # mode, where w is largest: log w <= 0, and both cumulative sums run
    # outward from the bulk of the mass
    ratio = np.ones(z.shape)
    ratio[:, left + 1 :] = mu / z[:, left + 1 :]
    ratio[:, :left] = (z[:, :left] + 1.0) / mu
    log_w = np.log(np.where(inside, ratio, 1.0))
    log_w[:, left + 1 :] = np.cumsum(log_w[:, left + 1 :], axis=1)
    log_w[:, :left] = np.cumsum(log_w[:, :left][:, ::-1], axis=1)[:, ::-1]
    w = np.where(inside, np.exp(log_w), 0.0)
    # both masses are summed in order of z, the rejected one with zeros in
    # place: rounding is monotone, so it never exceeds the total, and a
    # sequential sum ignores the padding, so a size does not depend on the
    # other lambdas of its chunk
    rejected = np.where(_poisson_limit(test, z, mu) > c, w, 0.0)
    return np.cumsum(rejected, axis=1)[:, -1] / np.cumsum(w, axis=1)[:, -1]


def _sizes(test: str, c: float, lam: np.ndarray) -> np.ndarray:
    # every lambda's size, in chunks of rows taken in increasing lambda, so
    # that rows of one chunk have windows of about the same width
    _check_lambdas(lam)
    mu = lam * lam
    half = _WINDOW_HALF_WIDTH * (lam + 1.0)
    lo, hi = np.maximum(0.0, np.floor(mu - half)), np.ceil(mu + half)
    order = np.argsort(lam, kind="stable")
    mu, lo, hi = mu[order], lo[order], hi[order]
    mode = np.floor(mu)
    sizes = np.empty(len(lam))
    # below lambda of about 1e-154, mu is subnormal or 0: mu / z underflows,
    # so log w is -inf and w is 0, and the limit statistics divide by mu,
    # giving inf above z = 0 (rejected) and 0 / 0 = nan at z = mu = 0 (not
    # rejected).  Those are the right limits, so numpy's warnings about them
    # are silenced; silencing changes no value
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start, stop in _chunks((mode - lo).astype(np.int64), (hi - mode).astype(np.int64)):
            rows = slice(start, stop)
            sizes[order[rows]] = _window_sizes(test, c, mu[rows], lo[rows], hi[rows])
    return sizes


def pearson_asymptotic_size(lam: float, alpha: float) -> float:
    """Limiting rejection probability of classic Pearson at level alpha.

    Returns P((Z - lambda^2)^2 / lambda^2 > c_alpha) for Z ~ Poisson(lambda^2),
    where c_alpha is the (1-alpha) chi-squared(1) quantile, summed over the
    normalized Poisson window; 0 < lambda <= 1000.  Rejection uses
    strict inequality, matching the classic rule statistic > c.
    """
    return size_curve("pearson", alpha, [lam])[0].asymptotic_size


def g_asymptotic_size(lam: float, alpha: float) -> float:
    """Limiting rejection probability of the classic G test at level alpha.

    Returns P(2 Z log(Z / lambda^2) - 2 (Z - lambda^2) > c_alpha) for
    Z ~ Poisson(lambda^2) with the 0 log 0 = 0 convention (the statistic is
    2 lambda^2 at z = 0), summed over the normalized Poisson window;
    0 < lambda <= 1000.
    """
    return size_curve("g", alpha, [lam])[0].asymptotic_size


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
    sizes = _sizes(test, _critical_value(alpha), np.array(grid))
    outside = ~((sizes >= 0.0) & (sizes <= 1.0))
    if outside.any():
        raise DomainError(f"size must lie in [0, 1], got {float(sizes[outside.argmax()])}")
    return list(map(SizeCurvePoint._make, zip(grid, repeat(alpha), sizes.tolist(), repeat(test))))
