"""Contingency tables, joint distributions, margins, and sampling.

A :class:`ContingencyTable` is an immutable I x J matrix of non-negative
integer counts with derived margins; a :class:`JointDistribution` is the
population analogue, a cell-probability matrix summing to one.  Sampling
routines draw tables from a distribution (multinomial) or shrink a table
without replacement (multivariate hypergeometric), each driven by an
explicit random stream so parallel callers stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DomainError,
    EmptySample,
    EmptyTable,
    NegativeCount,
    SubsampleTooLarge,
)
from .numerics import RandomStream, _require_int, as_generator

__all__ = [
    "ContingencyTable",
    "JointDistribution",
    "validate_table",
    "expected_counts",
    "sample_table",
    "subsample",
]

_INT64_LIMIT = 2**63
_HYPERGEOMETRIC_LIMIT = 10**9  # numpy's hypergeometric samplers take counts below this
_PROB_SUM_TOL = 1e-12  # family constructors are analytically normalized


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ContingencyTable:
    """Immutable matrix of cell counts with derived margins.

    Attributes
    ----------
    counts : ndarray of int64, shape (I, J)
        Cell counts; read-only.
    row_margins, col_margins : ndarray of int64
        Row sums and column sums of ``counts``.
    n : int
        Total count over all cells.
    """

    __slots__ = ("counts", "row_margins", "col_margins", "n")

    def __init__(self, counts) -> None:
        arr = _coerce_counts(counts)
        object.__setattr__(self, "counts", _freeze(arr))
        object.__setattr__(self, "row_margins", _freeze(arr.sum(axis=1)))
        object.__setattr__(self, "col_margins", _freeze(arr.sum(axis=0)))
        object.__setattr__(self, "n", int(arr.sum()))

    def __setattr__(self, name, value):
        raise AttributeError("ContingencyTable is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, since
        # the default slot restore would go through the __setattr__ guard
        return (type(self), (self.counts,))

    @property
    def I(self) -> int:
        return self.counts.shape[0]

    @property
    def J(self) -> int:
        return self.counts.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.counts.shape == other.counts.shape and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __hash__(self):
        return hash((self.counts.shape, self.counts.tobytes()))

    def __repr__(self) -> str:
        return f"ContingencyTable({self.counts.tolist()!r})"


def _coerce_counts(raw) -> np.ndarray:
    try:
        arr = np.asarray(raw)
    except ValueError as exc:  # ragged nested sequences
        raise DomainError(f"table must be rectangular: {exc}") from None
    # np.asarray drops a numpy.ma mask, which would count the masked cells
    if isinstance(raw, np.ndarray) and np.any(getattr(raw, "mask", False)):
        raise DomainError(
            f"table has {int(np.sum(raw.mask))} masked cell(s): a count table has no "
            f"missing cells, so fill the mask first"
        )
    if arr.size == 0:
        raise EmptyTable(f"table must have at least one row and one column, got shape {arr.shape}")
    if arr.ndim != 2:
        raise DomainError(f"table must be a 2-d matrix, got {arr.ndim} dimension(s)")
    # a signed-integer array holds integers within the int64 range already
    if arr.dtype.kind != "i":
        _require_int64_values(arr, raw)
    # always copy so freezing never touches a caller-owned buffer
    arr = np.array(arr, dtype=np.int64, order="C", copy=True)
    if np.any(arr < 0):
        i, j = _first_offender(arr < 0)
        raise NegativeCount(f"cell ({i},{j}) is negative: {arr[i, j]}")
    # margins and n are int64 sums, which would wrap: a float total far below
    # the limit clears the table, else the exact Python-int total decides
    if arr.sum(dtype=np.float64) >= 2.0**62:
        total = int(arr.sum(dtype=object))
        if total >= _INT64_LIMIT:
            raise DomainError(
                f"table total {total} is outside the int64 range (at most {_INT64_LIMIT - 1})"
            )
    return arr


def _require_int64_values(arr: np.ndarray, raw) -> None:
    # every entry must be an integer within the int64 range, checked before
    # the cast to int64, which would wrap silently
    kind = arr.dtype.kind
    if kind == "O":
        # numpy keeps an integer past the uint64 range as a Python int, and
        # every entry as given: numbers go on to the integer and range checks
        if not all(isinstance(v, (int, float, np.integer, np.floating)) for v in arr.flat):
            raise DomainError("table entries must be numeric")
        fractional = np.reshape(
            [isinstance(v, (float, np.floating)) and not float(v).is_integer() for v in arr.flat],
            arr.shape,
        )
    elif kind == "f":
        fractional = ~np.isfinite(arr) | (arr != np.floor(arr))
        # the range check casts 2^63 to the array's dtype: at least float64
        arr = arr.astype(np.promote_types(arr.dtype, np.float64), copy=False)
    elif kind == "u":
        fractional = np.zeros(arr.shape, dtype=bool)
    else:
        raise DomainError(f"table entries must be integers, got dtype {arr.dtype}")
    if np.any(fractional):
        i, j = _first_offender(fractional)
        raise DomainError(f"cell ({i},{j}) is not an integer: {float(arr[i, j])!r}")
    out_of_range = (arr >= _INT64_LIMIT) | (arr < -_INT64_LIMIT)
    if np.any(out_of_range):
        i, j = _first_offender(out_of_range)
        # numpy reads a list holding 2**63 as float64: report the entry as given
        value = np.asarray(raw, dtype=object)[i, j]
        raise DomainError(f"cell ({i},{j}) is outside the int64 range: {value!r}")


def _first_offender(mask: np.ndarray) -> tuple[int, int]:
    i, j = np.argwhere(mask)[0]
    return int(i), int(j)


def validate_table(raw) -> ContingencyTable:
    """Validate a raw count matrix and wrap it as a :class:`ContingencyTable`.

    Raises
    ------
    NegativeCount
        If any entry is negative.
    EmptyTable
        If the matrix has zero rows or zero columns.
    DomainError
        If the input is ragged, not 2-d, or not integral.
    """
    return ContingencyTable(raw)


class JointDistribution:
    """Immutable cell-probability matrix with derived margins.

    Entries must lie in [0, 1] and sum to 1 within 1e-12 absolute.
    ``row_margins`` and ``col_margins`` are the marginal laws of the row and
    column variables.
    """

    __slots__ = ("probs", "row_margins", "col_margins")

    def __init__(self, probs) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 2:
            raise DomainError(f"distribution must be a 2-d matrix, got {arr.ndim} dimension(s)")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmptyTable(
                f"distribution must have at least one row and one column, got shape {arr.shape}"
            )
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            i, j = _first_offender((arr < 0.0) | (arr > 1.0) | ~np.isfinite(arr))
            raise DomainError(f"cell ({i},{j}) probability {float(arr[i, j])!r} is outside [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise DomainError(f"probabilities must sum to 1 within {_PROB_SUM_TOL}, got {total!r}")
        arr = np.array(arr, dtype=np.float64, order="C", copy=True)
        object.__setattr__(self, "probs", _freeze(arr))
        object.__setattr__(self, "row_margins", _freeze(arr.sum(axis=1)))
        object.__setattr__(self, "col_margins", _freeze(arr.sum(axis=0)))

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    def __reduce__(self):
        # see ContingencyTable.__reduce__
        return (type(self), (self.probs,))

    @property
    def I(self) -> int:
        return self.probs.shape[0]

    @property
    def J(self) -> int:
        return self.probs.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape

    def is_product(self, tol: float = 0.0) -> bool:
        """True if every cell equals the product of its margins within tol."""
        outer = np.outer(self.row_margins, self.col_margins)
        return bool(np.all(np.abs(self.probs - outer) <= tol))

    def __repr__(self) -> str:
        return f"JointDistribution({self.probs.tolist()!r})"


def expected_counts(table: ContingencyTable) -> np.ndarray:
    """Expected cell counts under independence: row margin x column margin / n.

    Raises
    ------
    EmptySample
        If the table contains no observations.
    """
    if table.n == 0:
        raise EmptySample("expected counts need at least one observation")
    return np.outer(table.row_margins, table.col_margins) / float(table.n)


def sample_table(
    dist: JointDistribution, n: int, rng: RandomStream | np.random.Generator
) -> ContingencyTable:
    """Draw a table of n observations i.i.d. from a joint distribution.

    Cell counts jointly follow the multinomial law with the distribution's
    cell probabilities; the draw costs O(IJ) regardless of n.
    """
    n = _require_int(n, "sample size", 0)
    tables = _sample_tables(dist.probs, n, True, 1, as_generator(rng))
    return ContingencyTable(tables[0])


def subsample(
    table: ContingencyTable, m: int, rng: RandomStream | np.random.Generator
) -> ContingencyTable:
    """Draw m of the table's n observations uniformly without replacement.

    The result is multivariate hypergeometric over cells: equivalent to
    picking m of the n underlying individuals at random, but computed
    directly from counts in O(IJ).  numpy's sampler needs the table total
    below 10^9.
    """
    m = _require_int(m, "subsample size", 0)
    if m > table.n:
        raise SubsampleTooLarge(f"subsample size {m} exceeds table total {table.n}")
    _require_hypergeometric_total(table.n)
    tables = _sample_tables(table.counts, m, False, 1, as_generator(rng))
    return ContingencyTable(tables[0])


def _sample_tables(
    weights: np.ndarray, total: int, replace: bool, size: int, gen: np.random.Generator
) -> np.ndarray:
    # size tables as one int64 (size, I, J) array: total i.i.d. draws from
    # the cell probabilities weights, or, without replacement, total draws
    # from the cell counts weights.  A draw of size 1 equals numpy's unsized
    # draw from the same generator, bit for bit.
    if replace:
        flat = gen.multinomial(total, weights.ravel(), size=size)
    else:
        flat = gen.multivariate_hypergeometric(
            weights.ravel(), total, size=size, method="marginals"
        )
    return flat.reshape(size, *weights.shape).astype(np.int64, copy=False)


def _require_hypergeometric_total(n: int) -> None:
    if n >= _HYPERGEOMETRIC_LIMIT:
        raise DomainError(
            f"sampling without replacement needs a table total below 10^9 (numpy's "
            f"multivariate hypergeometric sampler takes no larger totals); this table has {n}"
        )
