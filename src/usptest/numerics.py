"""Special functions and seeded random streams.

Only the numerics the rest of the package needs: the regularized lower
incomplete gamma function (and with it the chi-squared CDF, tail and
quantile), and a small splittable random-stream wrapper that makes every
stochastic routine reproducible for any execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "RandomStream",
    "as_generator",
    "reg_lower_gamma",
    "chi2_cdf",
    "chi2_sf",
    "chi2_quantile",
]

# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

_MAX_UINT64 = 2**64 - 1


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
        if not (0 <= int(self.master_seed) <= _MAX_UINT64):
            raise DomainError("master_seed must be a 64-bit unsigned integer")
        sid = self.stream_id
        if isinstance(sid, (int, np.integer)):
            sid = (int(sid),)
        sid = tuple(int(s) for s in sid)
        if any(s < 0 for s in sid):
            raise DomainError("stream_id indices must be non-negative")
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
_FPMIN = 1e-300
_ITMAX = 1000


def _gamma_series(a: float, x: float) -> float:
    # lower series: P(a,x) = x^a e^-x / Gamma(a) * sum_k x^k / (a(a+1)...(a+k))
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float) -> float:
    # upper-tail continued fraction (modified Lentz); returns Q(a,x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Uses the series expansion for ``x < a + 1`` and the continued-fraction
    form of the upper tail otherwise; absolute error is below 1e-12 over the
    parameter ranges the package uses.

    Parameters
    ----------
    a : float
        Shape parameter, must be positive.
    x : float
        Evaluation point, must be non-negative.
    """
    if not (a > 0):
        raise DomainError(f"reg_lower_gamma requires a > 0, got a={a}")
    if not (x >= 0):
        raise DomainError(f"reg_lower_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _gamma_series(a, x))
    return min(1.0, max(0.0, 1.0 - _gamma_cf(a, x)))


def chi2_cdf(x: float, k: float) -> float:
    """CDF of the chi-squared distribution with k degrees of freedom."""
    if not (k >= 1):
        raise DomainError(f"chi2_cdf requires k >= 1, got k={k}")
    if not (x >= 0):
        raise DomainError(f"chi2_cdf requires x >= 0, got x={x}")
    return reg_lower_gamma(k / 2.0, x / 2.0)


def chi2_sf(x: float, k: float) -> float:
    """Upper tail 1 - chi2_cdf(x, k) of the chi-squared distribution.

    Computed directly from the continued fraction where the tail is small,
    so it keeps its relative accuracy far below the 1e-16 that subtracting
    the CDF from one can resolve.
    """
    if not (k >= 1):
        raise DomainError(f"chi2_sf requires k >= 1, got k={k}")
    if not (x >= 0):
        raise DomainError(f"chi2_sf requires x >= 0, got x={x}")
    a, h = k / 2.0, x / 2.0
    if h == 0.0:
        return 1.0
    if h < a + 1.0:
        return max(0.0, 1.0 - _gamma_series(a, h))
    return min(1.0, _gamma_cf(a, h))


def chi2_quantile(p: float, k: float) -> float:
    """Inverse chi-squared CDF by bracketed bisection.

    Bisects until the bracket is exhausted to floating-point resolution.
    Above the median it compares ``chi2_sf(q, k)`` with ``1 - p``, so the
    upper quantiles keep the relative accuracy of the tail, not of the CDF.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got p={p}")
    if not (k >= 1):
        raise DomainError(f"chi2_quantile requires k >= 1, got k={k}")
    tail = 1.0 - p  # exact for p >= 0.5

    def below(x: float) -> bool:
        # whether x lies below the quantile
        return chi2_sf(x, k) > tail if p > 0.5 else chi2_cdf(x, k) < p

    lo = 0.0
    hi = max(float(k), 1.0)
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
