"""Special functions and seeded random streams.

Only the numerics the rest of the package needs: the chi-squared tail at
integer degrees of freedom, for a float or an array, and its quantile by
bisection; a small splittable random-stream wrapper that makes every
stochastic routine reproducible for any execution order or worker count;
and the one check each of an integer argument and of a level alpha.

Both chi-squared tails and the asymptotic sizes of ``asymptotics`` are
Poisson-type masses, sums of the terms y^(j+h) / Gamma(j+h+1) with h = 0
or 1/2, and one windowed sum computes them all: each row of a 2-D array
pass holds one sum's terms within 12 (sqrt(y) + 1) of its largest, built
from the ratio of neighbouring terms in log space and summed sequentially,
in chunks of at most 2^13 cells.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "RandomStream",
    "as_generator",
    "chi2_sf",
    "chi2_quantile",
]

# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

_MAX_UINT64 = 2**64 - 1
_INT64_LIMIT = 2**63  # counts and totals stay below this, numpy's int64 range


def _require_int(value, what: str, lo: int, hi: int | None = None) -> int:
    # seeds, counts and sizes must be integers: int() would quietly truncate
    # 1.5 to 1, and an integral float would echo into the output as 100.0
    try:
        v = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if v < lo or (hi is not None and v > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{what} must be {bounds}, got {v}")
    return v


def _require_alpha(alpha) -> float:
    # a real number in (0, 1), returned as a float: a string such as "0.05" is refused, not coerced
    if not isinstance(alpha, numbers.Real):
        raise DomainError(f"alpha must be a number, got {alpha!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class RandomStream:
    """A reproducible, splittable source of randomness.

    The pair ``(master_seed, stream_id)`` fully determines the output
    sequence.  ``stream_id`` is a path of non-negative integers; child
    streams extend the path, so a stream derived as ``child(i, j)`` is
    identical no matter which worker derives it or in what order.  Distinct
    paths yield statistically independent sequences (counter-based
    derivation via ``numpy.random.SeedSequence`` spawn keys).

    Parameters
    ----------
    master_seed : int
        Non-negative 64-bit seed shared by a whole experiment.
    stream_id : int or tuple of int, optional
        Index path identifying this stream within the experiment.
    """

    master_seed: int
    stream_id: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "master_seed", _require_int(self.master_seed, "seed", 0, _MAX_UINT64)
        )
        sid = self.stream_id
        if isinstance(sid, (int, np.integer)):
            sid = (sid,)
        try:
            sid = tuple(map(operator.index, sid))
        except TypeError:
            raise DomainError(
                f"stream_id must be an integer or a sequence of integers, got {self.stream_id!r}"
            ) from None
        if any(s < 0 for s in sid):
            raise DomainError(f"stream_id indices must be non-negative, got {sid}")
        object.__setattr__(self, "stream_id", sid)

    def child(self, *indices: int) -> "RandomStream":
        """Return the stream whose id path extends this one by ``indices``."""
        return RandomStream(self.master_seed, self.stream_id + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Instantiate the numpy generator this stream denotes."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_id)
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(rng: RandomStream | np.random.Generator) -> np.random.Generator:
    """Accept either a RandomStream or a ready generator; return a generator."""
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng).__name__}")


# ---------------------------------------------------------------------------
# windowed Poisson-term sums: the chi-squared tails and asymptotic sizes
# ---------------------------------------------------------------------------

_WINDOW_HALF_WIDTH = 12.0  # window half-width, in units of sqrt(y) + 1
# padded window cells per array pass.  It bounds the temporaries, and at
# 64 KiB a float64 temporary stays below glibc's default 128 KiB mmap
# threshold, so a pass reuses heap memory instead of faulting in fresh pages
_CHUNK_CELLS = 2**13


def _chunks(below: np.ndarray, above: np.ndarray):
    # [start, stop) runs of rows whose windows, padded to the run's widest
    # reach below and above the anchor, hold at most _CHUNK_CELLS cells (one
    # row at least); a run has no more rows than its first row's width allows
    start = 0
    while start < len(below):
        end = start + _CHUNK_CELLS // (below[start] + 1 + above[start])
        width = np.maximum.accumulate(below[start:end]) + np.maximum.accumulate(above[start:end])
        cells = np.arange(1, len(width) + 1) * (width + 1)
        stop = start + max(1, int(np.searchsorted(cells, _CHUNK_CELLS, side="right")))
        yield start, stop
        start = stop


def _window_terms(
    y: np.ndarray, h: float, anchor: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # rows of z = anchor - left + c in column c, so every anchor sits in
    # column `left`, and the terms w = t(z) / t(anchor) with t(z) =
    # y^(z+h) / Gamma(z+h+1) on each row's window [lo, hi], 0 outside it
    left, right = int((anchor - lo).max()), int((hi - anchor).max())
    z = anchor[:, None] + np.arange(-left, right + 1.0)
    inside = (z >= lo[:, None]) & (z <= hi[:, None])
    # log w from the ratio t(z+1)/t(z) = y/(z+h+1), anchored where t is
    # largest: log w <= 0, and both cumulative sums run outward from the
    # bulk of the mass.  Padding may divide to inf or nan, and a tiny y's
    # ratio round to 0 (weight 0): silencing numpy's warnings changes no value
    y, zh = y[:, None], z + h
    ratio = np.ones(z.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio[:, left + 1 :] = y / zh[:, left + 1 :]
        ratio[:, :left] = (zh[:, :left] + 1.0) / y
        log_w = np.log(np.where(inside, ratio, 1.0))
    log_w[:, left + 1 :] = np.cumsum(log_w[:, left + 1 :], axis=1)
    log_w[:, :left] = np.cumsum(log_w[:, :left][:, ::-1], axis=1)[:, ::-1]
    return z, np.where(inside, np.exp(log_w), 0.0)


def _term_sum(y: np.ndarray, h: float, first: float, last: float) -> np.ndarray:
    # e^-y sum_{first <= j <= last} y^(j+h) / Gamma(j+h+1) for finite y > 0,
    # summed in order of j relative to the largest term, at j = floor(y - h)
    # held in [first, last], so no tail underflows and a sum depends on its
    # own y alone.  A window reaches 12 (sqrt(y) + 1) terms either side, or
    # 12 (sqrt(j + h + 1) + 1) where j is held below y - h and the terms
    # fall off faster, so it never holds more than O(sqrt(last)) terms
    anchor = np.clip(np.floor(y - h), first, last)
    reach = np.ceil(_WINDOW_HALF_WIDTH * (np.sqrt(np.minimum(y, anchor + h + 1.0)) + 1.0))
    lo, hi = np.maximum(anchor - reach, first), np.minimum(anchor + reach, last)
    total = np.empty(len(y))
    for start, stop in _chunks((anchor - lo).astype(np.int64), (hi - anchor).astype(np.int64)):
        rows = slice(start, stop)
        w = _window_terms(y[rows], h, anchor[rows], lo[rows], hi[rows])[1]
        total[rows] = np.cumsum(w, axis=1)[:, -1]
    peak = anchor + h
    top = peak * np.log(y) - np.array([math.lgamma(v) for v in (peak + 1.0).tolist()])
    return np.exp(top - y) * total


def _upper_gamma(y: np.ndarray, k: int) -> np.ndarray:
    # Q(k/2, y) for an integer k >= 1 over a 1-d array y >= 0 (Abramowitz &
    # Stegun 26.4.4-5): erfc(sqrt(y)) at odd k, plus e^-y sum_{j<k//2}
    # y^(j+h) / Gamma(j+h+1) with h = 1/2 at odd k and 0 at even k
    h, m = 0.5 * (k % 2), k // 2
    q = np.array([math.erfc(math.sqrt(v)) for v in y.tolist()]) if h else (y == 0.0) * 1.0
    live = (y > 0.0) & (y < math.inf)
    if m and live.any():
        q[live] += _term_sum(y[live], h, 0.0, m - 1.0)
    return np.minimum(q, 1.0)


def _gamma_tails(y: float, k: int) -> tuple[float, float]:
    # (P(k/2, y), Q(k/2, y)) for y >= 0: erf and erfc of sqrt(y) at k = 1,
    # else the term sum over j >= k//2 below y = k/2 + 1 and the upper tail
    # from there, the other tail 1 minus it
    if k == 1:
        t = math.sqrt(y)
        return math.erf(t), math.erfc(t)
    if 0.0 < y < k / 2.0 + 1.0:
        lower = min(1.0, float(_term_sum(np.array([y]), 0.5 * (k % 2), k // 2, math.inf)[0]))
        return lower, 1.0 - lower
    upper = float(_upper_gamma(np.array([y]), k)[0])
    return 1.0 - upper, upper


def chi2_sf(x, k: int):
    """Upper tail P(X > x) of the chi-squared distribution with k degrees of freedom.

    k is an integer >= 1; x is a float >= 0, giving a float, or an array,
    giving an array of its shape.  The tail is the finite sum of Abramowitz
    & Stegun 26.4.4-5: e^(-x/2) sum_{j<k/2} (x/2)^j / j! at even k, and
    erfc(sqrt(x/2)) plus the same sum over half-integer j at odd k.  Its
    terms are summed relative to the largest, within 12 (sqrt(x/2) + 1) of
    it, so the tail keeps its relative accuracy down to the smallest float,
    a value costs O(sqrt(k)) terms, and no sum can fail.
    """
    k = _require_int(k, "chi2_sf degrees of freedom k", 1)
    xs = np.asarray(x, dtype=float)
    bad = ~(xs >= 0.0)
    if bad.any():
        raise DomainError(f"chi2_sf requires x >= 0, got x={float(xs[bad].flat[0])}")
    q = _upper_gamma(xs.ravel() / 2.0, k)
    return float(q[0]) if xs.ndim == 0 else q.reshape(xs.shape)


def chi2_quantile(p: float, k: int) -> float:
    """Inverse chi-squared CDF at integer k >= 1: the point that bracketed bisection reaches.

    hi starts at k and doubles until it lies above the quantile, then
    [0, hi] is bisected until the bracket is exhausted.  Above the median a
    point lies below the quantile where the upper tail exceeds ``1 - p``,
    so upper quantiles keep the relative accuracy of the tail, not of the
    CDF; at or below it, where the CDF is below ``p``.  The CDF is erf at
    k = 1, else the windowed sum of the terms j >= k/2 below x = k + 2 and
    1 - ``chi2_sf`` above.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got p={p}")
    k = _require_int(k, "chi2_quantile degrees of freedom k", 1)
    tail = 1.0 - p  # exact for p >= 0.5

    def below(x: float) -> bool:
        # whether x lies below the quantile
        lower, upper = _gamma_tails(x / 2.0, k)
        return upper > tail if p > 0.5 else lower < p

    lo, hi = 0.0, float(k)
    while below(hi):
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if below(mid):
            lo = mid
        else:
            hi = mid
