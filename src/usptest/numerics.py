"""Special functions and seeded random streams.

Only the numerics the rest of the package needs: the regularized
incomplete gamma functions (and with them the chi-squared tail and
quantile), a small splittable random-stream wrapper that makes every
stochastic routine reproducible for any execution order or worker count,
and the one check of an integer argument.

The chi-squared quantile is defined as the point a bisection to
floating-point resolution reaches.  It is computed by Newton steps to a
narrow band around the quantile, then an exact replay of that bisection
which evaluates the tail only at midpoints inside the band.
"""

from __future__ import annotations

import math
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
# chi2_quantile: the relative band that Newton steps find the quantile in,
# and a cap on those steps; at the cap the band widens, and the result is
# the same
_QUANTILE_BAND = 2.0**-40
_NEWTON_STEPS = 100


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
    # (P(a,x), Q(a,x)) for a > 0, x >= 0: the lower series below x = a + 1 and
    # the upper continued fraction from there, times one prefactor; the other
    # tail is 1 minus the one computed.  Relative error is below 1e-12 for a
    # up to 500 and grows to about 1e-8 at a = 5 * 10^6
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

    Computed directly from the continued fraction where the tail is small,
    so it keeps its relative accuracy far below the 1e-16 that subtracting
    the CDF from one can resolve.
    """
    if not (k >= 1):
        raise DomainError(f"chi2_sf requires k >= 1, got k={k}")
    if not (x >= 0):
        raise DomainError(f"chi2_sf requires x >= 0, got x={x}")
    return _gamma_tails(k / 2.0, x / 2.0)[1]


def chi2_quantile(p: float, k: float) -> float:
    """Inverse chi-squared CDF: the point that bracketed bisection reaches.

    The result is defined by a bisection of [0, hi] to floating-point
    resolution, hi being max(k, 1) doubled until it lies above the quantile.
    Above the median a point lies below the quantile where ``chi2_sf(x, k)
    > 1 - p``, so the upper quantiles keep the relative accuracy of the
    tail, not of the CDF; at or below it, where the CDF ``P(k/2, x/2) < p``.

    The bisection is not run step by step.  Safeguarded Newton steps on the
    log of the compared tail find the quantile to within a relative band of
    about 2^-40, whose ends are checked to lie on either side of it (the
    band widens until they do).  The bisection is then replayed: midpoints
    outside the band are decided by their side of it, and only those inside
    evaluate the tail.  Rounding makes the computed tail non-monotone only
    much closer to the quantile than the band's ends, so this returns the
    bisection's value to the bit (tested for k from 1 to 1000), with about
    25 tail evaluations in place of about 55.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got p={p}")
    if not (k >= 1):
        raise DomainError(f"chi2_quantile requires k >= 1, got k={k}")
    a = k / 2.0
    upper = p > 0.5
    side = 1 if upper else 0
    tail = 1.0 - p  # exact for p >= 0.5

    def compared(x: float) -> float:
        # the tail that decides x's side, Q above the median and P below, as
        # _gamma_tails computes them
        return _gamma_tails(a, x / 2.0)[side]

    def is_below(t: float) -> bool:
        # whether a point whose compared tail is t lies below the quantile
        return t > tail if upper else t < p

    start = max(float(k), 1.0)
    top = start
    while is_below(compared(top)):
        top *= 2.0

    # Newton on u = log t(x) - log(target), t the compared tail, whose slope
    # needs x times the chi-squared density, the prefactor of _gamma_tails:
    # in x for the upper tail, where log Q is nearly linear, and in log x for
    # the lower one, where P grows like a power of x.  The bracket [lo, hi]
    # starts from the doubling (the last point doubled lies below), and a
    # step that leaves it, or none where t or the density is 0, is replaced
    # by its midpoint
    log_target = math.log(tail if upper else p)
    lgamma_a = math.lgamma(a)
    lo, hi = (0.5 * top if top > start else 0.0), top
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        t = compared(x)
        if is_below(t):
            lo = x
        else:
            hi = x
        y = x / 2.0
        x_density = math.exp(-y + a * math.log(y) - lgamma_a) if y > 0.0 else 0.0
        step = math.nan
        if t > 0.0 and x_density > 0.0:
            u = (math.log(t) - log_target) * t / x_density
            # (math.exp overflows past 709; a step that large leaves the bracket)
            step = x * u if upper else x * math.expm1(min(-u, 700.0))
            if abs(step) <= 0.25 * _QUANTILE_BAND * x:
                x += step
                break
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)

    band = _QUANTILE_BAND
    while band < 1.0:
        band_lo, band_hi = x * (1.0 - band), min(top, x * (1.0 + band))
        if is_below(compared(band_lo)) and not is_below(compared(band_hi)):
            break
        band *= 16.0
    else:
        # no band straddles the quantile: replay every step, a plain bisection
        band_lo, band_hi = 0.0, top

    lo, hi = 0.0, top
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid <= band_lo or (mid < band_hi and is_below(compared(mid))):
            lo = mid
        else:
            hi = mid
