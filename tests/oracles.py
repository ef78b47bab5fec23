"""Reference implementations that the library's fast paths are tested against."""

from fractions import Fraction

import numpy as np

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
