"""Reference implementations that the library's fast paths are tested against."""

import math
from fractions import Fraction
from itertools import permutations, product
from math import comb, prod
from typing import Sequence

import numpy as np

from usptest.errors import DomainError, SampleTooSmall
from usptest.numerics import RandomStream, _gamma_tails, as_generator, chi2_sf
from usptest.table import ContingencyTable


def permuted_table_by_shuffle(
    table: ContingencyTable, rng: RandomStream | np.random.Generator
) -> ContingencyTable:
    """O(n) reference for :func:`usptest.permutation.permuted_tables`.

    Expands the table to its n (row, column) observations, shuffles the
    column labels against the row labels, and re-tabulates.  Used to verify
    the count-only sampler draws from the same distribution.
    """
    gen = as_generator(rng)
    n_rows, n_cols = table.shape
    rows = np.repeat(np.arange(n_rows), table.row_margins)
    cols = np.repeat(np.arange(n_cols), table.col_margins)
    cols = gen.permutation(cols)
    flat = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return ContingencyTable(flat.reshape(n_rows, n_cols))


def usp_exact(counts) -> Fraction:
    """U-hat from the paper's formula in exact rational arithmetic."""
    rows = [[int(c) for c in row] for row in np.asarray(counts)]
    n = sum(map(sum, rows))
    r = [sum(row) for row in rows]
    c = [sum(col) for col in zip(*rows)]
    sq = cross = Fraction(0)
    for i, row in enumerate(rows):
        for j, o in enumerate(row):
            e = Fraction(r[i] * c[j], n)
            sq += (o - e) ** 2
            cross += o * e
    return sq / (n * (n - 3)) - 4 * cross / (n * (n - 2) * (n - 3))


def pearson_exact(counts) -> Fraction:
    """Pearson's X^2 in exact rational arithmetic; needs positive margins."""
    rows = [[int(c) for c in row] for row in np.asarray(counts)]
    n = sum(map(sum, rows))
    r = [sum(row) for row in rows]
    c = [sum(col) for col in zip(*rows)]
    return sum(
        (Fraction(o * n - r[i] * c[j]) ** 2 / (n * r[i] * c[j]))
        for i, row in enumerate(rows)
        for j, o in enumerate(row)
    )


def g_exact_key(counts) -> int:
    """prod(o^o), an integer that ranks like G among tables with equal margins."""
    return prod(int(o) ** int(o) for o in np.asarray(counts).ravel())


def two_row_law(counts) -> list[tuple[list[list[int]], Fraction]]:
    """Every 2 x J table with the margins of ``counts``, with its exact
    probability under the permutation law.

    Given the margins, a table is fixed by its first row x, and
    P(x) = prod_j C(c_j, x_j) / C(n, r_1) (multivariate hypergeometric).
    """
    top, bottom = [[int(x) for x in row] for row in np.asarray(counts)]
    c = [a + b for a, b in zip(top, bottom)]
    r1, n = sum(top), sum(c)
    law = []
    for head in product(*(range(cj + 1) for cj in c[:-1])):
        last = r1 - sum(head)
        if 0 <= last <= c[-1]:
            x = [*head, last]
            weight = prod(comb(cj, xj) for cj, xj in zip(c, x))
            law.append(([x, [cj - xj for cj, xj in zip(c, x)]], Fraction(weight, comb(n, r1))))
    return law


def two_row_tail(counts, statistic) -> Fraction:
    """Exact P(T >= t0) for a two-row table t0 under the permutation law.

    ``statistic`` maps a table to an exactly comparable value; the tail sums
    the probability of every table with the observed margins whose value is
    at least the observed one.  This is the B -> infinity limit of the
    conservative permutation p-value.
    """
    t0 = statistic(np.asarray(counts).tolist())
    return sum((w for table, w in two_row_law(counts) if statistic(table) >= t0), Fraction(0))


class SampleTooLargeForOracle(ValueError):
    """The brute-force oracle refuses combinatorially explosive inputs."""


_ORACLE_MAX_N = 12


def dhat_bruteforce(pairs: Sequence[tuple[int, int]]) -> float:
    """Kernel-average oracle for D-hat, from raw (row, column) observations.

    Averages, over all n(n-1)(n-2)(n-3) ordered 4-tuples of distinct
    observation indices (a, b, c, d), the kernel

        h = 1{x_a = x_b, y_a = y_b} - 2 * 1{x_a = x_b, y_a = y_c}
            + 1{x_a = x_c, y_b = y_d}.

    Exponential-time reference implementation used to pin dhat_statistic;
    guarded to 4 <= n <= 12.
    """
    xs = [int(x) for x, _ in pairs]
    ys = [int(y) for _, y in pairs]
    n = len(xs)
    if n < 4:
        raise SampleTooSmall(f"kernel average needs at least 4 observations, got {n}")
    if n > _ORACLE_MAX_N:
        raise SampleTooLargeForOracle(
            f"brute-force oracle is limited to {_ORACLE_MAX_N} observations, got {n}"
        )
    total = 0
    for a, b, c, d in permutations(range(n), 4):
        if xs[a] == xs[b]:
            if ys[a] == ys[b]:
                total += 1
            if ys[a] == ys[c]:
                total -= 2
        if xs[a] == xs[c] and ys[b] == ys[d]:
            total += 1
    return total / (n * (n - 1) * (n - 2) * (n - 3))


_TAIL_TRUNCATION = 1e-12
_TAIL_MAX_TERMS = 1_000_000


def poisson_pmf(z: int, mu: float) -> float:
    """Poisson point mass e^(-mu) mu^z / z!, evaluated in log space."""
    if not (mu > 0):
        raise DomainError(f"poisson_pmf requires mu > 0, got mu={mu}")
    if z < 0 or int(z) != z:
        raise DomainError(f"poisson_pmf requires a non-negative integer z, got z={z}")
    z = int(z)
    return math.exp(z * math.log(mu) - mu - math.lgamma(z + 1))


def poisson_tail_mass(predicate, mu: float) -> float:
    """Total Poisson(mu) probability of the set ``{z : predicate(z)}``.

    Reference for :func:`usptest.asymptotics.size_curve`: sums point masses
    for z = 0, 1, 2, ... and stops once the cumulative probability reaches
    1 - 1e-12, so the returned mass is exact to that truncation level (for
    mu up to about 10^6, where 10^6 terms no longer reach it).
    """
    if not (mu > 0):
        raise DomainError(f"poisson_tail_mass requires mu > 0, got mu={mu}")
    cumulative = 0.0
    mass = 0.0
    for z in range(_TAIL_MAX_TERMS):
        pmf = poisson_pmf(z, mu)
        cumulative += pmf
        if predicate(z):
            mass += pmf
        if cumulative >= 1.0 - _TAIL_TRUNCATION:
            break
    return mass


def chi2_quantile_bisect(p: float, k: float) -> float:
    """Reference for :func:`usptest.numerics.chi2_quantile`: the bisection it is.

    Doubles hi from max(k, 1) until it lies above the quantile, then bisects
    [0, hi] until the bracket is exhausted to floating-point resolution.
    Above the median it compares ``chi2_sf(x, k)`` with ``1 - p``, otherwise
    the CDF, ``_gamma_tails(k / 2, x / 2)[0]``, with ``p``.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"chi2_quantile requires 0 < p < 1, got p={p}")
    if not (k >= 1):
        raise DomainError(f"chi2_quantile requires k >= 1, got k={k}")
    tail = 1.0 - p  # exact for p >= 0.5

    def below(x: float) -> bool:
        # whether x lies below the quantile
        return chi2_sf(x, k) > tail if p > 0.5 else _gamma_tails(k / 2.0, x / 2.0)[0] < p

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
