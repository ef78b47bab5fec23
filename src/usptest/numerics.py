"""Special functions and seeded random streams.

Only the numerics the rest of the package needs: the chi-squared tail at
integer degrees of freedom as a finite sum, for a float or an array, and
its quantile by bisection; a small splittable random-stream wrapper that
makes every stochastic routine reproducible for any execution order or
worker count; and the one check each of an integer argument and of a
level alpha.
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
# regularized incomplete gamma and the chi-squared distribution
# ---------------------------------------------------------------------------

_EPS = 2.22e-16
_TERM_CHUNK = 2**16  # terms of the closed form summed at once, so memory stays bounded in k


def _term_budget(a: float) -> int:
    # Near x = a the series needs a number of terms that grows like sqrt(a)
    # (its terms fall off as exp(-k^2 / 2a)), so a fixed cap would return a
    # partial sum for large a
    return 1000 + int(10.0 * math.sqrt(a))


def _gamma_series(a: float, x: float) -> float:
    # lower series P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a(a+1)...(a+k)); returns the sum
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_term_budget(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise DomainError(
        f"incomplete gamma series did not converge in {_term_budget(a)} terms at a={a}, x={x}"
    )


def _lgamma(z: np.ndarray) -> np.ndarray:
    # log Gamma(z) for z >= 1: math.lgamma below 64, Stirling's series from
    # there, where the first term it leaves out is below 1e-19
    w2 = z**-2.0
    out = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    out += (1 / 12 - w2 * (1 / 360 - w2 * (1 / 1260 - w2 / 1680))) / z
    out[z < 64.0] = [math.lgamma(v) for v in z[z < 64.0].tolist()]
    return out


def _upper_gamma(y: np.ndarray, k: int) -> np.ndarray:
    # Q(k/2, y) for an integer k >= 1 over a 1-d array y >= 0 (Abramowitz &
    # Stegun 26.4.4-5): erfc(sqrt(y)) at odd k, plus e^-y sum_{j<k//2}
    # y^(j+h) / Gamma(j+h+1) with h = 1/2 at odd k and 0 at even k.  Each
    # result depends on its own y alone: its terms are summed relative to
    # its largest, at j = floor(y - h) within range, so no tail underflows
    h, m = 0.5 * (k % 2), k // 2
    q = np.array([math.erfc(math.sqrt(v)) for v in y.tolist()]) if h else (y == 0.0) * 1.0
    live = (y > 0.0) & (y < math.inf)
    if m == 0 or not live.any():
        return q
    v, log_v = y[live], np.log(y[live])
    peak = np.minimum(np.floor(np.maximum(v - h, 0.0)), m - 1) + h
    top = peak * log_v - _lgamma(peak + 1.0)  # log of the largest term, plus y
    total = np.zeros(v.shape)
    for lo in range(0, m, _TERM_CHUNK):
        j = np.arange(lo, min(m, lo + _TERM_CHUNK)) + h
        total += np.exp(np.outer(log_v, j) - _lgamma(j + 1.0) - top[:, None]).sum(axis=1)
    q[live] += np.exp(top - v) * total
    return np.minimum(q, 1.0)


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    # (P(a,x), Q(a,x)) for a = k/2 with an integer k >= 1, and x >= 0: erf
    # and erfc of sqrt(x) at a = 1/2, else the lower series below x = a + 1
    # and the closed-form upper tail from there, the other tail 1 minus it
    if a == 0.5:
        t = math.sqrt(x)
        return math.erf(t), math.erfc(t)
    if 0.0 < x < a + 1.0:
        lower = _gamma_series(a, x) * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return min(1.0, lower), max(0.0, 1.0 - lower)
    upper = float(_upper_gamma(np.array([x]), int(2 * a))[0])
    return 1.0 - upper, upper


def chi2_sf(x, k: int):
    """Upper tail P(X > x) of the chi-squared distribution with k degrees of freedom.

    k is an integer >= 1; x is a float >= 0, giving a float, or an array,
    giving an array of its shape.  The tail is the finite sum of Abramowitz
    & Stegun 26.4.4-5: e^(-x/2) sum_{j<k/2} (x/2)^j / j! at even k, and
    erfc(sqrt(x/2)) plus the same sum over half-integer j at odd k.  No sum
    can fail to converge, and summed in log space the tail keeps its
    relative accuracy down to the smallest float.
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
    k = 1, else a series below x = k + 2 and 1 - ``chi2_sf`` above.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got p={p}")
    k = _require_int(k, "chi2_quantile degrees of freedom k", 1)
    tail = 1.0 - p  # exact for p >= 0.5

    def below(x: float) -> bool:
        # whether x lies below the quantile
        lower, upper = _gamma_tails(k / 2.0, x / 2.0)
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
