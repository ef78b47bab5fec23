"""Reference implementations that the library's fast paths are tested against."""

import math
from fractions import Fraction
from itertools import permutations, product
from math import comb, prod
from typing import Sequence

import numpy as np

from usptest.errors import DomainError, SampleTooSmall
from usptest.numerics import RandomStream, as_generator
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


def table_law(counts) -> list[tuple[list[list[int]], Fraction]]:
    """Every I x J table with the margins of ``counts``, with its exact
    probability under the permutation law.

    By row recursion: given the column counts c not yet placed, the next row
    x of sum r is multivariate hypergeometric,
    P(x) = prod_j C(c_j, x_j) / C(sum c, r), and the last row is what is
    left.  The support grows fast with n and the shape: a 3 x 4 table of 12
    observations has a few hundred tables, the 2 x 5 ``eyecolour`` 603 500.
    """
    rows = [[int(x) for x in row] for row in np.asarray(counts)]
    r = [sum(row) for row in rows]

    def tables(i, left):
        if i == len(r) - 1:
            yield [left], Fraction(1)
            return
        for head in product(*(range(min(cj, r[i]) + 1) for cj in left[:-1])):
            last = r[i] - sum(head)
            if 0 <= last <= left[-1]:
                x = [*head, last]
                w = Fraction(prod(comb(cj, xj) for cj, xj in zip(left, x)), comb(sum(left), r[i]))
                for rest, q in tables(i + 1, [cj - xj for cj, xj in zip(left, x)]):
                    yield [x, *rest], w * q

    return list(tables(0, [sum(col) for col in zip(*rows)]))


def exact_tail(counts, statistic) -> Fraction:
    """Exact P(T >= t0) for a table t0 under the permutation law.

    ``statistic`` maps a table to an exactly comparable value; the tail sums
    the probability of every table with the observed margins whose value is
    at least the observed one.  This is the B -> infinity limit of the
    conservative permutation p-value.
    """
    t0 = statistic(np.asarray(counts).tolist())
    return sum((w for table, w in table_law(counts) if statistic(table) >= t0), Fraction(0))


def dhat_exact(counts) -> Fraction:
    """D-hat in exact rational arithmetic: :func:`usp_exact` plus the three
    margin terms of :func:`usptest.stats.dhat_statistic`."""
    rows = [[int(c) for c in row] for row in np.asarray(counts)]
    n = sum(map(sum, rows))
    r2 = sum(sum(row) ** 2 for row in rows)
    c2 = sum(sum(col) ** 2 for col in zip(*rows))
    return (
        usp_exact(counts)
        + Fraction(r2 + c2, n * (n - 1) * (n - 3))
        + Fraction((3 * n - 2) * r2 * c2, n**3 * (n - 1) * (n - 2) * (n - 3))
        - Fraction(n, (n - 1) * (n - 3))
    )


def dependence_exact(probs) -> Fraction:
    """D = sum (p_ij - p_i+ p_+j)^2 of a law with rational cells, exactly."""
    cells = [[Fraction(p) for p in row] for row in probs]
    r = [sum(row) for row in cells]
    c = [sum(col) for col in zip(*cells)]
    return sum((p - r[i] * c[j]) ** 2 for i, row in enumerate(cells) for j, p in enumerate(row))


def _compositions(n: int, k: int):
    # every k-tuple of non-negative integers that sums to n
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _compositions(n - head, k - 1):
            yield (head, *tail)


def multinomial_expectation(probs, n: int, statistic) -> Fraction:
    """Exact E[statistic(T)] over every table T of n draws from a law.

    ``probs`` is a nested list of rational cells summing to 1.  With the
    cells written a_ij / d over one denominator, a table o has probability
    n! / prod(o_ij!) * prod(a_ij^o_ij) / d^n; cells of probability zero stay
    zero.  ``statistic`` maps an int64 array of the law's shape to a number
    (a float is taken at its exact value), and the sum is a Fraction.
    """
    cells = [Fraction(p) for row in probs for p in row]
    if sum(cells) != 1 or min(cells) < 0:
        raise DomainError(f"the cells must be non-negative and sum to 1, got {probs}")
    shape = (len(probs), len(probs[0]))
    d = math.lcm(*(p.denominator for p in cells))
    a = [int(p * d) for p in cells]
    live = [k for k, ak in enumerate(a) if ak]
    total = Fraction(0)
    for parts in _compositions(n, len(live)):
        counts = [0] * len(cells)
        weight = math.factorial(n)
        for k, o in zip(live, parts):
            counts[k] = o
            weight = weight * a[k] ** o // math.factorial(o)
        total += weight * Fraction(statistic(np.array(counts, dtype=np.int64).reshape(shape)))
    return total / d**n


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
