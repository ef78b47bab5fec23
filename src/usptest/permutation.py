"""Margin-preserving permutation tests and classic chi-squared-quantile tests.

The permutation engine draws all B permuted tables of a run as one
(B, I, J) array, straight from the cell counts, with the
sequential-conditional method of Patefield (Algorithm AS 159, Appl.
Statist. 30, 1981): each row but the last, given the column counts not yet
placed, is multivariate hypergeometric, and is drawn one column at a time
by a hypergeometric call vectorized over the batch.  That reproduces
exactly the distribution induced by re-pairing the column labels with a
uniformly random permutation of the row labels, without ever materializing
the n underlying observations.  Tables are drawn in blocks of bounded cell
count, so memory does not grow with B.

Each statistic is scored as one reduction over a block, through a key that
ranks like the statistic among tables with the data's margins (the usp key
is an exact integer).  One generator per run draws the tables and the
tie-break, so a run is reproducible from its stream alone.

P-values are rank-based.  With the default randomized tie policy the test is
exact: under independence the p-value is uniform on {1/(B+1), ..., 1}, so
the rejection probability at level alpha is exactly alpha whenever
alpha(B+1) is an integer, and conservative otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidMode
from .numerics import RandomStream, as_generator, chi2_sf
from .stats import (
    _g_value,
    _pearson_value,
    _usp_key,
    _usp_key_dtype,
    g_statistic,
    pearson_statistic,
    usp_statistic,
)
from .table import ContingencyTable

__all__ = [
    "PermutationConfig",
    "TestResult",
    "permuted_tables",
    "permutation_pvalue",
    "run_test",
    "METHODS",
    "MODES",
]

METHODS = ("usp", "pearson", "g")
MODES = ("permutation", "classic")

_BLOCK_CELLS = 1 << 18  # cells per block of permuted tables (2 MiB of int64)


@dataclass(frozen=True)
class PermutationConfig:
    """Everything needed to make a permutation run reproducible.

    Parameters
    ----------
    B : int
        Number of permuted tables, >= 1.
    alpha : float
        Nominal level in (0, 1).
    seed : int
        Master seed (64-bit unsigned) for the permutation stream.
    tie_policy : str
        "randomized" breaks rank ties uniformly at random (exact size);
        "conservative" counts ties against rejection (never anti-conservative).
    """

    B: int = 999
    alpha: float = 0.05
    seed: int = 0
    tie_policy: str = "randomized"

    def __post_init__(self) -> None:
        if self.B < 1:
            raise DomainError(f"B must be >= 1, got {self.B}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.tie_policy not in ("randomized", "conservative"):
            raise DomainError(f"unknown tie policy {self.tie_policy!r}")
        if self.alpha * (self.B + 1) < 1.0:
            warnings.warn(
                f"alpha*(B+1) = {self.alpha * (self.B + 1):.3g} < 1: the smallest "
                f"attainable p-value 1/(B+1) exceeds alpha, so the test can never reject",
                stacklevel=2,
            )


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single test run.

    ``B`` is set in permutation mode only, ``df`` in classic mode only.
    ``reject`` always equals ``p_value <= alpha``; permutation p-values are
    exact multiples of 1/(B+1).
    """

    method: str
    mode: str
    statistic: float
    p_value: float
    reject: bool
    alpha: float
    B: int | None
    df: int | None
    seed: int


def _draw(table: ContingencyTable, size: int, gen: np.random.Generator) -> np.ndarray:
    # Patefield's sequential-conditional method, vectorized over the batch:
    # row i given the column counts still unplaced is multivariate
    # hypergeometric, drawn one column at a time from its marginals.
    I, J = table.shape
    out = np.empty((size, I, J), dtype=np.int64)
    rest = np.repeat(table.col_margins[None, :], size, axis=0)
    unplaced = table.n
    for i in range(I - 1):
        need = np.full(size, table.row_margins[i], dtype=np.int64)
        left = np.full(size, unplaced, dtype=np.int64)
        for j in range(J - 1):
            left -= rest[:, j]
            x = gen.hypergeometric(rest[:, j], left, need)
            out[:, i, j] = x
            need -= x
        out[:, i, J - 1] = need
        rest -= out[:, i]
        unplaced -= int(table.row_margins[i])
    out[:, I - 1] = rest
    return out


def _blocks(table: ContingencyTable, B: int, gen: np.random.Generator):
    # B tables in consecutive blocks of at most _BLOCK_CELLS cells, so peak
    # memory does not grow with B
    step = max(1, _BLOCK_CELLS // (table.I * table.J))
    for start in range(0, B, step):
        yield _draw(table, min(step, B - start), gen)


def permuted_tables(
    table: ContingencyTable, B: int, rng: RandomStream | np.random.Generator
) -> np.ndarray:
    """Draw B tables uniformly from the re-pairing distribution given margins.

    Returns an int64 array of shape (B, I, J).  Every table has exactly the
    input's row and column margins and is distributed as the table obtained
    by pairing the row labels with a uniformly random permutation of the
    column labels (multivariate hypergeometric over tables with fixed
    margins).  The draw makes (I-1)(J-1) vectorized hypergeometric calls per
    block, so its cost does not depend on n.
    ``permutation_pvalue(table, method, config, stream)`` scores exactly the
    tables of ``permuted_tables(table, config.B, stream)``.
    """
    if B < 1:
        raise DomainError(f"B must be >= 1, got {B}")
    return np.concatenate(list(_blocks(table, B, as_generator(rng))))


def _rank_key(table: ContingencyTable, method: str) -> Callable[[np.ndarray], np.ndarray]:
    # Returns a reduction from a (B, I*J) batch to B keys that rank like the
    # method's statistic over tables sharing this table's margins; terms that
    # depend on the margins alone drop out.
    n = table.n
    rc = np.outer(table.row_margins, table.col_margins).ravel()
    if method == "usp":
        dtype = _usp_key_dtype(n)
        rc = rc.astype(dtype)
        return lambda o: _usp_key(o.astype(dtype, copy=False), rc, n)
    if method == "pearson":
        # X^2 = n sum(o^2 / (r_i c_j)) - n; cells of an empty row or column
        # are zero in every table and get weight 0
        with np.errstate(divide="ignore"):
            w = np.where(rc > 0, 1.0 / rc, 0.0)
        return lambda o: ((o * o) * w).sum(axis=1)
    # G = 2 sum(o log o) + margin-only terms, with 0 log 0 = 0
    return lambda o: (o * np.log(np.maximum(o, 1))).sum(axis=1)


def _observed_statistic(table: ContingencyTable, method: str) -> float:
    # Permutation mode conditions on the margins, which every permuted table
    # shares with the data, so zero rows/columns stay zero throughout the
    # run.  Pearson and G are therefore reported in their total form (empty
    # rows and columns contribute nothing): the procedure is exactly the
    # permutation test on the nonempty support, and remains defined for
    # tables where the classic-mode statistics raise UndefinedStatistic.
    if method == "usp":
        return usp_statistic(table).value
    if method == "pearson":
        return _pearson_value(table.counts, table.n)
    return _g_value(table.counts, table.n)


def permutation_pvalue(
    table: ContingencyTable,
    method: str,
    config: PermutationConfig,
    stream: RandomStream,
) -> tuple[float, float]:
    """Rank-based permutation p-value of a method's statistic on a table.

    Ranks the data's statistic T0 among T1..TB on B margin-preserving
    permuted tables.  With randomized ties,

        p = (1 + #{b: Tb > T0} + U) / (B + 1),  U uniform on {0, ..., #ties},

    which makes p uniform over {1/(B+1), ..., 1} under the null; the
    conservative policy counts every tie as an exceedance.  Tables are
    compared through a key that ranks exactly like the statistic given the
    margins; the usp key is an integer, so usp ties are exact.

    One generator, ``stream.generator()``, draws all B tables (see
    :func:`permuted_tables`) and then the tie-break, so the result depends on
    the stream alone and not on execution order or worker count.

    Returns
    -------
    (statistic, p_value)
        ``statistic`` is the method's statistic on the data, as in the paper.
    """
    if method not in METHODS:
        raise InvalidMode(f"unknown method {method!r}; expected one of {METHODS}")
    if not isinstance(stream, RandomStream):
        raise TypeError("permutation_pvalue needs a RandomStream to derive its generator")
    t0 = _observed_statistic(table, method)
    key = _rank_key(table, method)
    k0 = key(table.counts.reshape(1, -1))[0]
    gen = stream.generator()
    greater = ties = 0
    for block in _blocks(table, config.B, gen):
        keys = key(block.reshape(len(block), -1))
        greater += int(np.count_nonzero(keys > k0))
        ties += int(np.count_nonzero(keys == k0))
    if config.tie_policy == "randomized":
        rank = 1 + greater + (int(gen.integers(0, ties + 1)) if ties else 0)
    else:
        rank = 1 + greater + ties
    return t0, rank / (config.B + 1.0)


def _classic_statistic(table: ContingencyTable, method: str) -> float:
    if method == "pearson":
        return pearson_statistic(table).value
    return g_statistic(table).value


def run_test(
    table: ContingencyTable,
    method: str,
    mode: str,
    config: PermutationConfig | None = None,
    stream: RandomStream | None = None,
) -> TestResult:
    """Run one independence test on a table and report a :class:`TestResult`.

    Parameters
    ----------
    method : {"usp", "pearson", "g"}
    mode : {"permutation", "classic"}
        Classic mode compares the statistic to the chi-squared distribution
        with (I-1)(J-1) degrees of freedom and is valid for pearson and g
        only; usp has no classic reference law here.
    config : PermutationConfig, optional
        Level, permutation count, seed, tie policy.  Defaults apply.
    stream : RandomStream, optional
        Permutation stream override; defaults to RandomStream(config.seed).
        Simulation drivers pass per-replicate children so that every
        replicate is independently reproducible.
    """
    if method not in METHODS:
        raise InvalidMode(f"unknown method {method!r}; expected one of {METHODS}")
    if mode not in MODES:
        raise InvalidMode(f"unknown mode {mode!r}; expected one of {MODES}")
    if config is None:
        config = PermutationConfig()
    if mode == "classic":
        if method == "usp":
            raise InvalidMode("usp has no classic mode; use mode='permutation'")
        stat = _classic_statistic(table, method)
        df = (table.I - 1) * (table.J - 1)
        if df < 1:
            raise DomainError(
                f"classic mode needs at least a 2x2 table, got {table.I}x{table.J}"
            )
        p_value = chi2_sf(stat, df)
        return TestResult(
            method=method,
            mode=mode,
            statistic=stat,
            p_value=p_value,
            reject=p_value <= config.alpha,
            alpha=config.alpha,
            B=None,
            df=df,
            seed=config.seed,
        )
    if stream is None:
        stream = RandomStream(config.seed)
    stat, p_value = permutation_pvalue(table, method, config, stream)
    return TestResult(
        method=method,
        mode=mode,
        statistic=stat,
        p_value=p_value,
        reject=p_value <= config.alpha,
        alpha=config.alpha,
        B=config.B,
        df=None,
        seed=config.seed,
    )
