"""Special functions and seeded random streams.

Only the numerics the rest of the package needs: the regularized
incomplete gamma functions, in closed form at one degree of freedom, and
with them the chi-squared tail and its quantile by bisection; a small
splittable random-stream wrapper that makes every stochastic routine
reproducible for any execution order or worker count; and the one check
each of an integer argument and of a level alpha.
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


def _require_alpha(alpha) -> None:
    # a level is a real number in (0, 1): a string such as "0.05" is refused, not coerced
    if not isinstance(alpha, numbers.Real):
        raise DomainError(f"alpha must be a number, got {alpha!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


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
_FPMIN = 1e-300


def _term_budget(a: float) -> int:
    # Near x = a both expansions need a number of terms that grows like
    # sqrt(a) (the series' terms fall off as exp(-k^2 / 2a)), so a fixed cap
    # would return a partial sum for large a
    return 1000 + int(10.0 * math.sqrt(a))


def _unconverged(a: float, x: float, form: str) -> DomainError:
    return DomainError(
        f"incomplete gamma {form} did not converge in {_term_budget(a)} terms at a={a}, x={x}"
    )


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
            break
    else:
        raise _unconverged(a, x, "series")
    return total


def _gamma_cf(a: float, x: float) -> float:
    # upper-tail continued fraction (modified Lentz) of Q(a,x) / (x^a e^-x / Gamma(a))
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _term_budget(a) + 1):
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
    else:
        raise _unconverged(a, x, "continued fraction")
    return h


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    # (P(a,x), Q(a,x)) for a > 0, x >= 0.  At a = 1/2 (one degree of
    # freedom) both are closed forms, erf and erfc of sqrt(x).  Otherwise the
    # lower series below x = a + 1 and the upper continued fraction from
    # there, times one prefactor; the other tail is 1 minus the one computed.
    # Relative error is below 1e-12 for a up to 500 and grows to about 1e-8
    # at a = 5 * 10^6
    if a == 0.5:
        t = math.sqrt(x)
        return math.erf(t), math.erfc(t)
    if x == 0.0:
        return 0.0, 1.0
    prefactor = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        lower = _gamma_series(a, x) * prefactor
        return min(1.0, lower), max(0.0, 1.0 - lower)
    upper = _gamma_cf(a, x) * prefactor
    return min(1.0, max(0.0, 1.0 - upper)), min(1.0, upper)


def chi2_sf(x: float, k: float) -> float:
    """Upper tail P(X > x) of the chi-squared distribution with k degrees of freedom.

    Computed directly (erfc at k = 1, else the continued fraction) where
    the tail is small, so it keeps its relative accuracy far below the
    1e-16 that subtracting the CDF from one can resolve.
    """
    if not (k >= 1):
        raise DomainError(f"chi2_sf requires k >= 1, got k={k}")
    if not (x >= 0):
        raise DomainError(f"chi2_sf requires x >= 0, got x={x}")
    return _gamma_tails(k / 2.0, x / 2.0)[1]


def chi2_quantile(p: float, k: float) -> float:
    """Inverse chi-squared CDF: the point that bracketed bisection reaches.

    hi starts at max(k, 1) and doubles until it lies above the quantile,
    then [0, hi] is bisected until the bracket is exhausted.  Above the
    median a point lies below the quantile where ``chi2_sf(x, k) > 1 - p``,
    so upper quantiles keep the relative accuracy of the tail, not of the
    CDF; at or below it, where the CDF ``P(k/2, x/2) < p``.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got p={p}")
    if not (k >= 1):
        raise DomainError(f"chi2_quantile requires k >= 1, got k={k}")
    tail = 1.0 - p  # exact for p >= 0.5

    def below(x: float) -> bool:
        # whether x lies below the quantile
        lower, upper = _gamma_tails(k / 2.0, x / 2.0)
        return upper > tail if p > 0.5 else lower < p

    lo, hi = 0.0, max(float(k), 1.0)
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
