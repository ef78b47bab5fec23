"""Margin-preserving permutation tests and classic chi-squared-quantile tests.

The permutation engine draws the B permuted tables of a run in chunks of at
most 2^18 cells (one table, where a table is larger), and scores each chunk
before it draws the next, so memory does not grow with B.  Every table
follows the law of re-pairing the column labels with a uniformly random
permutation of the row labels.  One of two samplers draws them, chosen once
per call from the total n and the shape alone:

* sparse tables, n < 5 (I-1)(J-1), shuffle that definition literally: each
  table permutes its n column labels against the row labels, and one
  bincount tabulates the block, at a cost of n labels a table;
* all others use the sequential-conditional method of Patefield (Algorithm
  AS 159, Appl. Statist. 30, 1981): each row but the last, given the column
  counts not yet placed, is multivariate hypergeometric, and is drawn one
  column at a time by a hypergeometric call vectorized over the batch, at a
  cost of (I-1)(J-1) draws a table whatever n is.

Either sampler serves a batch of source tables, each with its own
margins.  One block evaluation, :func:`_block_pvalues`, gives every test's
p-value on R tables of a common total: a single test on one table is the
case R = 1, and the Monte Carlo studies call it once per block of sampled
tables.  It scores each permutation test as one reduction over the
permuted tables, through a key that ranks like the statistic among tables
with the source's margins (the usp key is an exact integer), and scores
each classic test as one reduction too.  One generator per run draws the
tables and the tie-break, so a run is reproducible from its stream alone.

The stopping rule.  A single test draws its B tables in one pass.  A study
block, which needs only accept/reject decisions, stops early instead: it
draws B/8 tables per source, then B/4, then the rest, and after each chunk
a source leaves once every permutation test has (1 + G) / (B + 1) > alpha,
where G counts the permuted keys above the source's own, plus the equal
ones under the conservative policy.  A chunk that stops no source is
followed by the rest in one chunk, and a block drawn by Patefield's method
with fewer than 6 000 tables to draw takes them in one chunk, since each of
its chunks has the fixed cost of about 300 tables.  G never decreases and a
p-value is at least (1 + G) / (B + 1), the same float expression, so a
source that leaves could not reject: every decision is that of a run of all
B tables on the same tables.  Tie-breaks are drawn only for the sources
still undecided after all B tables, the set that such a run finds by the
same rule.  Stopping changes which tables a study's generator draws, and so
its output for a given seed, but the schedule depends on the block alone
and never on the worker that runs it.

P-values are rank-based.  With the default randomized tie policy the test is
exact: under independence the p-value is uniform on {1/(B+1), ..., 1}, so
the rejection probability at level alpha is exactly alpha whenever
alpha(B+1) is an integer, and conservative otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidMode
from .numerics import _MAX_UINT64, RandomStream, _require_alpha, _require_int, as_generator, chi2_sf
from .stats import _CLASSIC_METHODS, METHODS, _rank_key, _require_positive_margins, _value
from .table import _HYPERGEOMETRIC_LIMIT, ContingencyTable

__all__ = [
    "PermutationConfig",
    "TestResult",
    "permuted_tables",
    "permutation_pvalue",
    "run_test",
    "MODES",
]

MODES = ("permutation", "classic")

_BLOCK_CELLS = 1 << 18  # cells, or shuffled labels, per block of permuted tables (2 MiB of int64)


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
        _require_int(self.B, "B", 1)
        _require_int(self.seed, "seed", 0, _MAX_UINT64)
        _require_alpha(self.alpha)
        if self.tie_policy not in ("randomized", "conservative"):
            raise DomainError(f"unknown tie policy {self.tie_policy!r}")
        if self.alpha * (self.B + 1) < 1.0:
            warnings.warn(
                f"alpha*(B+1) = {self.alpha * (self.B + 1):.3g} < 1: the smallest "
                f"attainable p-value 1/(B+1) exceeds alpha, so the test can never reject",
                # past the __init__ that dataclass generates, to the caller
                stacklevel=3,
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


def _draw(rows: np.ndarray, cols: np.ndarray, b: int, gen: np.random.Generator) -> np.ndarray:
    # b tables for each of the k sources with margins rows (k, I) and cols
    # (k, J), as an array (k, b, I*J), by Patefield's sequential-conditional
    # method vectorized over the k*b tables: row i given the column counts
    # still unplaced is multivariate hypergeometric, drawn one column at a
    # time from its marginals.  A lone source draws its cell (0, 0), where
    # every table shares the arguments, through numpy's scalar path, which
    # skips the array call's fixed cost and consumes the generator exactly
    # as the array call would.
    k, I = rows.shape
    J = cols.shape[1]
    totals = np.einsum("mi->m", rows)  # sum(axis=1) is slow on short rows
    if I > 1 and J > 1:
        # numpy's draws see ngood = c_j and nbad = c_{j+1} + ... + c_{J-1};
        # the largest are c_0 and n - c_0, which bounds every later c_j
        big = max(cols[:, 0].max(), (totals - cols[:, 0]).max())
        if big >= _HYPERGEOMETRIC_LIMIT:
            raise DomainError(
                f"permutation mode needs the first column margin, and the total of "
                f"the other columns, below 10^9 (numpy's hypergeometric sampler "
                f"takes no larger counts); this table has {big}"
            )
    out = np.empty((k * b, I, J), dtype=np.int64)
    unplaced = np.repeat(totals, b)
    rows, rest = np.repeat(rows, b, axis=0), np.repeat(cols, b, axis=0)
    for i in range(I - 1):
        need = rows[:, i].copy()
        left = unplaced.copy()
        for j in range(J - 1):
            left -= rest[:, j]
            if k == 1 and i == j == 0:
                x = gen.hypergeometric(int(rest[0, 0]), int(left[0]), int(need[0]), size=b)
            else:
                x = gen.hypergeometric(rest[:, j], left, need)
            out[:, i, j] = x
            need -= x
        out[:, i, J - 1] = need
        rest -= out[:, i]
        unplaced -= rows[:, i]
    out[:, I - 1] = rest
    return out.reshape(k, b, I * J)


def _shuffle(rows: np.ndarray, cols: np.ndarray, b: int, gen: np.random.Generator) -> np.ndarray:
    # b tables for each of the k sources with margins rows (k, I) and cols
    # (k, J), all of total n, by the definition of the permutation law: each
    # table shuffles its source's n column labels against its row labels, and
    # one bincount over the cell indices, offset by table, tabulates them all
    k, I = rows.shape
    J = cols.shape[1]
    x = np.repeat(np.tile(np.arange(J), k), cols.ravel()).reshape(k, 1, -1)
    x = np.repeat(x, b, axis=1).reshape(k * b, -1)
    gen.permuted(x, axis=1, out=x)
    x = x.reshape(k, b, -1)
    x += J * np.repeat(np.tile(np.arange(I), k), rows.ravel()).reshape(k, 1, -1)
    x += (I * J * np.arange(k * b)).reshape(k, b, 1)
    return np.bincount(x.ravel(), minlength=k * b * I * J).reshape(k, b, I * J)


# A call shuffles labels when its tables hold fewer than this many
# observations per free cell, n < _SHUFFLE_PER_FREE_CELL (I-1)(J-1).  The
# two samplers cost the same at about 8 (6 for a 2x2 table); at 5 the
# shuffle takes 0.45-0.9 of Patefield's time on the shapes measured, up
# to break-even on a 2x2 table.
_SHUFFLE_PER_FREE_CELL = 5


def _shuffles(n: int, I: int, J: int) -> bool:
    return n < _SHUFFLE_PER_FREE_CELL * (I - 1) * (J - 1)


def _permuted(rows: np.ndarray, cols: np.ndarray, B: int, gen: np.random.Generator):
    # B permuted tables for each of the R source tables whose margins are
    # rows (R, I) and cols (R, J), all of one total n, drawn lazily in chunks
    # of at most `step` tables, so that peak memory grows with neither R nor
    # B.  Yields (lo, hi, tables) with tables of shape (hi - lo, b, I*J): b
    # tables for each source lo..hi-1.  A chunk holds whole sources when B
    # fits in it, else consecutive pieces of one source.  The sampler is
    # chosen once from (n, I, J), by the rule of the module docstring.
    R, I = rows.shape
    J = cols.shape[1]
    n = int(rows[0].sum())
    shuffle = _shuffles(n, I, J)
    sampler = _shuffle if shuffle else _draw
    step = max(1, _BLOCK_CELLS // (max(n, I * J) if shuffle else I * J))
    b = min(B, step)
    per = step // b
    for lo in range(0, R, per):
        hi = min(lo + per, R)
        for s in range(0, B, b):
            yield lo, hi, sampler(rows[lo:hi], cols[lo:hi], min(b, B - s), gen)


def permuted_tables(
    table: ContingencyTable, B: int, rng: RandomStream | np.random.Generator
) -> np.ndarray:
    """Draw B tables uniformly from the re-pairing distribution given margins.

    Returns an int64 array of shape (B, I, J).  Every table has exactly the
    input's row and column margins and is distributed as the table obtained
    by pairing the row labels with a uniformly random permutation of the
    column labels (multivariate hypergeometric over tables with fixed
    margins).  Tables with fewer than five observations per free cell,
    n < 5 (I-1)(J-1), shuffle the n column labels of each table against its
    row labels; all others make (I-1)(J-1) vectorized hypergeometric calls
    per block (Patefield's method), at a cost that does not depend on n.
    The rule depends on (n, I, J) alone, so a seed gives the same tables on
    every call.
    ``permutation_pvalue(table, method, config, stream)`` scores exactly the
    tables of ``permuted_tables(table, config.B, stream)``.
    """
    B = _require_int(B, "B", 1)
    rows, cols = table.row_margins[None, :], table.col_margins[None, :]
    chunks = _permuted(rows, cols, B, as_generator(rng))
    return np.concatenate([t[0] for _, _, t in chunks]).reshape(B, table.I, table.J)


# A chunk of Patefield draws has a fixed cost of (I-1)(J-1) numpy
# hypergeometric calls, as much as drawing about 300 of its tables (on 2
# shared vCPUs, 354 us against 1.3 us a table for 4x5 tables, 133 against
# 0.44 us for 4x4); a shuffled chunk's fixed cost is that of a few dozen
# tables.  So a block drawn by Patefield's method stops early only when it
# has at least this many tables to draw, where a first chunk that stops
# nothing costs it at most 5% more.
_STOP_MIN_TABLES = 6000


def _stop_points(B: int, R: int, shuffle: bool) -> list[int]:
    # How many permuted tables per source a stopping block of R sources has
    # drawn each time it drops its decided sources: B/8, B/8 + B/4, then all
    # B; or all B at once, where an extra chunk would not pay for itself.
    # The points depend on the block alone, never on the worker that runs it.
    if not shuffle and R * B < _STOP_MIN_TABLES:
        return [B]
    return sorted({B // 8, B // 8 + B // 4, B} - {0})


def _observed_statistic(table: ContingencyTable, method: str) -> float:
    # Permutation mode conditions on the margins, which every permuted table
    # shares with the data, so zero rows/columns stay zero throughout the
    # run.  Every method is therefore scored on the nonempty support (empty
    # rows and columns contribute nothing to U-hat, and pearson and g take
    # their total form): the procedure is exactly the permutation test on the
    # nonempty support, and remains defined for tables where the classic-mode
    # statistics raise UndefinedStatistic.
    support = table.counts[table.row_margins > 0][:, table.col_margins > 0]
    return float(_value(method, support, table.n))


def _classic_df(I: int, J: int) -> int:
    # degrees of freedom of the classic chi-squared reference law
    df = (I - 1) * (J - 1)
    if df < 1:
        raise DomainError(f"classic mode needs at least a 2x2 table, got {I}x{J}")
    return df


def _classic_scores(tables: np.ndarray, n: int, method: str) -> tuple[np.ndarray, np.ndarray]:
    # statistics and chi-squared p-values, each of shape (R,), of a classic
    # test on R tables of common total n, the statistic scored as one
    # reduction; a table with a zero margin has no classic statistic and gets
    # NaN for both
    R, I, J = tables.shape
    df = _classic_df(I, J)
    defined = (tables.sum(axis=2) > 0).all(axis=1) & (tables.sum(axis=1) > 0).all(axis=1)
    stats = np.full(R, np.nan)
    p = np.full(R, np.nan)
    stats[defined] = _value(method, tables[defined], n)
    p[defined] = [chi2_sf(stat, df) for stat in stats[defined].tolist()]
    return stats, p


def _check_test(method: str, mode: str) -> None:
    if method not in METHODS:
        raise InvalidMode(f"unknown method {method!r}; expected one of {METHODS}")
    if mode not in MODES:
        raise InvalidMode(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "classic" and method not in _CLASSIC_METHODS:
        raise InvalidMode(f"{method} has no classic mode; use mode='permutation'")


def _block_pvalues(
    tables: np.ndarray,
    n: int,
    tests: Sequence[tuple[str, str]],
    config: PermutationConfig,
    gen: np.random.Generator,
    stop: bool = False,
) -> np.ndarray:
    """P-values of every (method, mode) test on each of R tables.

    ``tables`` is an int64 array (R, I, J) of tables with the common total n.
    Returns a float array (len(tests), R), NaN where a classic statistic is
    undefined.  Every permutation test scores the same permuted tables,
    drawn from ``gen`` by :func:`_permuted`, with its rank key, and counts
    for each source the permuted keys above and equal to its own; ties are
    then broken test by test, in order.

    Without ``stop`` every source draws all B tables in one pass.  With it,
    the tables come in the chunks of :func:`_stop_points`, and a source
    leaves by the stopping rule of the module docstring: its tie-breaks are
    not drawn, and each of its permutation p-values is the lower bound
    (1 + G) / (B + 1) > alpha, so ``p <= alpha`` decides every test as a run
    of all B tables would.
    """
    R, I, J = tables.shape
    B = config.B
    perm = [method for method, mode in tests if mode == "permutation"]
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    keys = [_rank_key(method, rows, cols, n) for method in perm]
    own = tables.reshape(R, 1, I * J)
    k0 = [key(own, slice(None)) for key in keys]
    greater = np.zeros((len(perm), R), dtype=np.int64)
    ties = np.zeros((len(perm), R), dtype=np.int64)
    live = np.arange(R)
    points = iter(_stop_points(B, R, _shuffles(n, I, J)) if stop else [B])
    drawn = 0
    while perm and drawn < B and live.size:
        point = next(points)
        for lo, hi, block in _permuted(rows[live], cols[live], point - drawn, gen):
            sl = live[lo:hi]
            for t, key in enumerate(keys):
                k, ref = key(block, sl), k0[t][sl]
                greater[t, sl] += (k > ref).sum(axis=1)
                ties[t, sl] += (k == ref).sum(axis=1)
        drawn = point
        if stop:
            G = greater[:, live] + (ties[:, live] if config.tie_policy == "conservative" else 0)
            going = ((1 + G) / (B + 1.0) <= config.alpha).any(axis=0)
            if going.all():
                points = iter([B])
            live = live[going]
    p = np.empty((len(tests), R))
    for t, (method, mode) in enumerate(tests):
        if mode == "classic":
            p[t] = _classic_scores(tables, n, method)[1]
        else:
            # p = (1 + exceedances + tie share) / (B + 1): randomized ties draw
            # their share uniformly from {0, ..., ties}, conservative ones
            # count them all
            k = perm.index(method)
            share = ties[k]
            if config.tie_policy == "randomized":
                share = np.zeros_like(share)
                if ties[k, live].any():
                    share[live] = gen.integers(0, ties[k, live] + 1)
            p[t] = (1 + greater[k] + share) / (B + 1.0)
    return p


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
    compared through a key that ranks like the statistic given the margins.
    The usp key is an integer, so usp ties are exact.  The pearson and g
    keys are float sums, whose rounding can split a true tie: a table that
    ties the data's statistic exactly may compare as above or below it.

    One generator, ``stream.generator()``, draws all B tables (see
    :func:`permuted_tables`) and then the tie-break, so the result depends on
    the stream alone and not on execution order or worker count.

    Returns
    -------
    (statistic, p_value)
        ``statistic`` is the method's statistic on the data, as in the paper.
    """
    _check_test(method, "permutation")
    if not isinstance(stream, RandomStream):
        raise TypeError("permutation_pvalue needs a RandomStream to derive its generator")
    t0 = _observed_statistic(table, method)
    gen = stream.generator()
    p = _block_pvalues(table.counts[None], table.n, [(method, "permutation")], config, gen)
    return t0, float(p[0, 0])


def run_test(
    table: ContingencyTable,
    method: str,
    mode: str,
    config: PermutationConfig | None = None,
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
        Level, permutation count, seed, tie policy.  Defaults apply.  The
        permutation stream is RandomStream(config.seed).
    """
    _check_test(method, mode)
    if config is None:
        config = PermutationConfig()
    if mode == "classic":
        stats, p = _classic_scores(table.counts[None], table.n, method)
        _require_positive_margins(table, method)
        stat, p_value = float(stats[0]), float(p[0])
        B, df = None, _classic_df(table.I, table.J)
    else:
        stat, p_value = permutation_pvalue(table, method, config, RandomStream(config.seed))
        B, df = config.B, None
    return TestResult(
        method=method,
        mode=mode,
        statistic=stat,
        p_value=p_value,
        reject=p_value <= config.alpha,
        alpha=config.alpha,
        B=B,
        df=df,
        seed=config.seed,
    )
