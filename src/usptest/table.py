"""Contingency tables, joint distributions, margins, and sampling.

A :class:`ContingencyTable` is an immutable I x J matrix of non-negative
integer counts with derived margins; a :class:`JointDistribution` is the
population analogue, a cell-probability matrix summing to one.  Sampling
routines draw tables from a distribution (multinomial) or shrink a table
without replacement (multivariate hypergeometric), each driven by an
explicit random stream so parallel callers stay reproducible.

This module owns the matrix: the immutable body of a table and of a law,
the one input check of a raw matrix, and the expected counts r_i c_j / n of
the classic statistics.  It also checks the size of every sampled table, a
single draw's or a study's: a sample size, or a subsample size and its
source table, is checked here and nowhere else.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .errors import (
    DomainError,
    EmptySample,
    EmptyTable,
    NegativeCount,
    SubsampleTooLarge,
)
from .numerics import _INT64_LIMIT, RandomStream, _require_int, as_generator

__all__ = [
    "ContingencyTable",
    "JointDistribution",
    "validate_table",
    "expected_counts",
    "sample_table",
    "subsample",
]

_HYPERGEOMETRIC_LIMIT = 10**9  # numpy's hypergeometric samplers take counts below this
_PROB_SUM_TOL = 1e-12  # family constructors are analytically normalized


class _Matrix:
    """The frozen body of a table and of a law: its matrix, in the slot named
    by ``_FIELD``, and margins.  Each subclass passes a validated C-ordered
    copy of its own, so freezing never touches a caller-owned buffer."""

    __slots__ = ("row_margins", "col_margins")
    _FIELD: str

    def __init__(self, arr: np.ndarray) -> None:
        margins = arr.sum(axis=1), arr.sum(axis=0)
        for name, value in zip((self._FIELD, "row_margins", "col_margins"), (arr, *margins)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, since
        # the default slot restore would go through the __setattr__ guard
        return (type(self), (getattr(self, self._FIELD),))

    @property
    def I(self) -> int:
        return self.shape[0]

    @property
    def J(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return getattr(self, self._FIELD).shape

    def __repr__(self) -> str:
        return f"{type(self).__name__}({getattr(self, self._FIELD).tolist()!r})"


class ContingencyTable(_Matrix):
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

    __slots__ = ("counts", "n")
    _FIELD = "counts"

    def __init__(self, counts) -> None:
        arr = _coerce_counts(counts)
        super().__init__(arr)
        object.__setattr__(self, "n", int(arr.sum()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash((self.counts.shape, self.counts.tobytes()))


def _matrix(raw, what: str) -> np.ndarray:
    # raw as a nonempty, unmasked 2-d array, entries as given: the rules that
    # a table and a distribution share
    try:
        arr = np.asarray(raw)
    except ValueError as exc:  # ragged nested sequences
        raise DomainError(f"{what} must be rectangular: {exc}") from None
    if arr.size == 0:
        raise EmptyTable(f"{what} must have at least one row and one column, got shape {arr.shape}")
    if arr.ndim != 2:
        raise DomainError(f"{what} must be a 2-d matrix, got {arr.ndim} dimension(s)")
    # np.asarray drops a numpy.ma mask, which would keep the masked cells
    if isinstance(raw, np.ndarray) and np.any(getattr(raw, "mask", False)):
        whole = "a count table" if what == "table" else f"a {what}"
        raise DomainError(
            f"{what} has {int(np.sum(raw.mask))} masked cell(s): {whole} has no "
            f"missing cells, so fill the mask first"
        )
    return arr


def _entry_dtype(arr: np.ndarray) -> np.dtype:
    # the dtype the entry checks go by: bool for an object array holding a
    # bool or np.bool_, which Python would take as the int 1 or 0, so that it
    # is refused as a bool array is.  numpy reads a list mixing bools and
    # numbers, such as [[True, 2]], as a number array before any check here
    if arr.dtype.kind == "O" and any(isinstance(v, (bool, np.bool_)) for v in arr.flat):
        return np.dtype(bool)
    return arr.dtype


def _coerce_counts(raw) -> np.ndarray:
    arr = _matrix(raw, "table")
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
    dtype = _entry_dtype(arr)
    kind = dtype.kind
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
        raise DomainError(f"table entries must be integers, got dtype {dtype}")
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
        If the input is ragged, not 2-d, or not integral, or holds a bool:
        bool entries are refused in a bool array and in an object array
        alike.  numpy reads a list mixing bools and numbers, such as
        ``[[True, 2]]``, as int64 before this function sees it, so that one
        is taken as ``[[1, 2]]``.
    """
    return ContingencyTable(raw)


class JointDistribution(_Matrix):
    """Immutable cell-probability matrix with derived margins.

    Entries must lie in [0, 1] and sum to 1 within 1e-12 absolute.
    ``row_margins`` and ``col_margins`` are the marginal laws of the row and
    column variables.  Bool entries are refused, in a bool array and in an
    object array alike; numpy reads a list mixing bools and numbers, such
    as ``[[True, 0.0]]``, as a number array before this class sees it, so
    that one is taken as ``[[1.0, 0.0]]``.
    """

    __slots__ = ("probs",)
    _FIELD = "probs"

    def __init__(self, probs) -> None:
        arr = _matrix(probs, "distribution")
        dtype = _entry_dtype(arr)
        kind = dtype.kind
        bad = [v for v in arr.flat if not isinstance(v, Real)] if kind == "O" else []
        if kind not in "iufO" or bad:
            got = repr(bad[0]) if bad else f"dtype {dtype}"
            raise DomainError(f"distribution entries must be real numbers, got {got}")
        try:
            arr = arr.astype(np.float64, order="C")  # always a C-ordered copy
        except OverflowError:  # a Python int past the float range
            raise DomainError(
                "distribution entries must lie in [0, 1], got an integer past the float range"
            ) from None
        if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
            i, j = _first_offender((arr < 0.0) | (arr > 1.0) | ~np.isfinite(arr))
            raise DomainError(f"cell ({i},{j}) probability {float(arr[i, j])!r} is outside [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise DomainError(f"probabilities must sum to 1 within {_PROB_SUM_TOL}, got {total!r}")
        super().__init__(arr)

    def is_product(self, tol: float = 0.0) -> bool:
        """True if every cell equals the product of its margins within tol."""
        outer = np.outer(self.row_margins, self.col_margins)
        return bool(np.all(np.abs(self.probs - outer) <= tol))


def expected_counts(table: ContingencyTable) -> np.ndarray:
    """Expected cell counts under independence: row margin x column margin / n.

    Raises
    ------
    EmptySample
        If the table contains no observations.
    """
    if table.n == 0:
        raise EmptySample("expected counts need at least one observation")
    return _expected(table.counts, table.n)


def _expected(counts: np.ndarray, n: int) -> np.ndarray:
    # r_i c_j / n over the trailing (I, J) axes of one table or of a batch of
    # tables of total n.  The exact int64 margins go to float64 before their
    # product, which int64 would wrap past 2^63: the same float below 2^53
    rows = counts.sum(axis=-1).astype(np.float64)
    cols = counts.sum(axis=-2).astype(np.float64)
    return rows[..., :, None] * cols[..., None, :] / float(n)


def sample_table(
    dist: JointDistribution, n: int, rng: RandomStream | np.random.Generator
) -> ContingencyTable:
    """Draw a table of n observations i.i.d. from a joint distribution.

    Cell counts jointly follow the multinomial law with the distribution's
    cell probabilities; the draw costs O(IJ) regardless of n.
    """
    n = _require_sample_size(n)
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
    tables = _sample_tables(*_subsample_source(table, m, False), 1, as_generator(rng))
    return ContingencyTable(tables[0])


def _require_sample_size(value) -> int:
    # the size of every table drawn from a law: numpy's samplers take int64
    # counts.  A subsample's size needs no such bound, being at most its
    # table's total
    n = _require_int(value, "sample size", 0)
    if n >= _INT64_LIMIT:
        raise DomainError(
            f"sample size must be below 2^63 (numpy's samplers draw int64 counts), got {n}"
        )
    return n


def _subsample_source(table: ContingencyTable, m, replace: bool) -> tuple[np.ndarray, int, bool]:
    # the (weights, m, replace) arguments of _sample_tables that draw m of the
    # table's observations: i.i.d. from its empirical law, or without
    # replacement.  An empty table's law divides by 1, not 0: it only takes
    # m = 0, which a study refuses
    m = _require_int(m, "subsample size", 0)
    if m > table.n:
        raise SubsampleTooLarge(f"subsample size {m} exceeds table total {table.n}")
    if not replace:
        _require_hypergeometric_total(table.n)
    return (table.counts / max(table.n, 1) if replace else table.counts), m, replace


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
