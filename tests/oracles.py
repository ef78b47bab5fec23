"""Reference implementations that the library's fast paths are tested against."""

from fractions import Fraction
from itertools import permutations
from math import comb, prod
from typing import Sequence

import numpy as np

from usptest.errors import SampleTooSmall
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


def hypergeometric_tail_2x2(counts, statistic) -> Fraction:
    """Exact P(T >= t0) for a 2x2 table t0 under the permutation law.

    Given the margins, the tables are indexed by their (0, 0) cell k, which
    is hypergeometric: P(k) = C(r1, k) C(n - r1, c1 - k) / C(n, c1).
    ``statistic`` maps a table to an exactly comparable value; the tail sums
    P over every table whose value is at least the observed one.  This is the
    B -> infinity limit of the conservative permutation p-value.
    """
    (a, b), (c, d) = [[int(x) for x in row] for row in np.asarray(counts)]
    n, r1, c1 = a + b + c + d, a + b, a + c
    t0 = statistic([[a, b], [c, d]])
    mass = 0
    for k in range(max(0, r1 + c1 - n), min(r1, c1) + 1):
        table = [[k, r1 - k], [c1 - k, n - r1 - c1 + k]]
        if statistic(table) >= t0:
            mass += comb(r1, k) * comb(n - r1, c1 - k)
    return Fraction(mass, comb(n, c1))


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
