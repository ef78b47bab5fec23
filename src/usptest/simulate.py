"""Monte Carlo harness: alternative families, power curves, estimator samples,
and real-data subsampling studies.

Three parametric departures from independence are provided, each indexed by a
perturbation parameter epsilon (epsilon = 0 recovers a product law):

* sparse: a product base law with geometrically decaying margins, perturbed
  by +epsilon on cells (1,1), (2,2) and -epsilon on (1,2), (2,1).  Margins
  are unchanged and the dependence measure is exactly 4 epsilon^2.
* dense: the uniform law plus a +-epsilon checkerboard.  With both
  dimensions even the margins stay uniform and the dependence measure is
  IJ epsilon^2.
* multiplicative: a 4x4 law with cells (1 + (-1)^(i+j) epsilon) / (C 2^(i+j)),
  normalized by C; independent exactly at epsilon = 0.

Studies run in blocks of a fixed number of replicates (``_BLOCK_REPS``, a
code constant).  Each block draws from one generator keyed by (master seed,
epsilon index, block index): it samples all of the block's tables in one
call, then draws B permuted tables for every sampled table in one batched
pass, then breaks ties.  All permutation tests of a replicate score the same
permuted tables; each is still an exact permutation test, because every
test compares its statistic over the same exchangeable draws.  Classic
tests score all of a block's tables with one reduction.  Workers take whole
blocks, so results are bit-identical for any worker count, and workers never
share streams.

``threads`` is an upper bound on the worker processes.  A study starts one
worker per ``_POOL_MIN_CELLS`` cells of the tables that its permutation
tests draw, and never more than it has blocks or the machine has cores: a
small study runs in the calling process, where a pool would cost more to
start than it saves.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
import dataclasses
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InfeasibleEpsilon, SampleTooSmall, SubsampleTooLarge
from .numerics import RandomStream
from .permutation import PermutationConfig, _block_pvalues, _check_test, _require_positive_int
from .stats import _require_sample, dhat_statistic
from .table import (
    ContingencyTable,
    JointDistribution,
    _require_count,
    _require_hypergeometric_total,
    _sample_tables,
    sample_table,
)

__all__ = [
    "AlternativeFamily",
    "sparse_family",
    "sparse_max_epsilon",
    "dense_family",
    "multiplicative_family",
    "TestRate",
    "PowerCurvePoint",
    "SubsampleStudy",
    "power_curve",
    "dhat_samples",
    "subsample_study",
    "power_curve_csv",
    "dhat_samples_csv",
    "subsample_study_csv",
    "POWER_CSV_HEADER",
    "DHAT_CSV_HEADER",
    "SUBSAMPLE_CSV_HEADER",
]

_FAMILY_KINDS = ("sparse", "dense", "multiplicative")
_GRID_POINTS = 11


# ---------------------------------------------------------------------------
# alternative families
# ---------------------------------------------------------------------------


def sparse_family(I: int, J: int, epsilon: float) -> JointDistribution:
    """Four-cell perturbation of a geometric-margin product law.

    Base cells are 2^-(i+j) / ((1 - 2^-I)(1 - 2^-J)) for 1-based (i, j);
    epsilon is added to cells (1,1) and (2,2) and subtracted from (1,2) and
    (2,1), which leaves every margin unchanged.  The dependence measure of
    the result is exactly 4 epsilon^2.
    """
    if I < 2 or J < 2:
        raise DomainError(f"sparse family needs I, J >= 2, got {I}x{J}")
    q = 2.0 ** -np.arange(1, I + 1) / (1.0 - 2.0**-I)
    r = 2.0 ** -np.arange(1, J + 1) / (1.0 - 2.0**-J)
    probs = np.outer(q, r)
    if epsilon < 0:
        raise InfeasibleEpsilon(f"epsilon must be >= 0, got {epsilon}")
    probs[0, 0] += epsilon
    probs[1, 1] += epsilon
    probs[0, 1] -= epsilon
    probs[1, 0] -= epsilon
    corner = probs[:2, :2]
    if np.any(corner < 0.0) or np.any(corner > 1.0):
        raise InfeasibleEpsilon(
            f"epsilon={epsilon} pushes a perturbed cell outside [0, 1] "
            f"(feasible up to {sparse_max_epsilon(I, J)})"
        )
    return JointDistribution(probs)


def sparse_max_epsilon(I: int, J: int) -> float:
    """Largest feasible epsilon for sparse_family(I, J, .)."""
    base = sparse_family(I, J, 0.0).probs
    return float(min(base[0, 1], base[1, 0], 1.0 - base[0, 0], 1.0 - base[1, 1]))


def dense_family(I: int, J: int, epsilon: float) -> JointDistribution:
    """Checkerboard perturbation of the uniform law on I x J cells.

    Cell (i, j) (1-based) has probability 1/(IJ) + (-1)^(i+j) epsilon.
    Feasible for 0 <= epsilon <= 1/(IJ).  With both dimensions even the
    margins remain uniform and the dependence measure is IJ epsilon^2; a
    nonzero epsilon needs at least one even dimension to sum to 1.
    """
    if I < 2 or J < 2:
        raise DomainError(f"dense family needs I, J >= 2, got {I}x{J}")
    if not (0.0 <= epsilon <= 1.0 / (I * J)):
        raise InfeasibleEpsilon(
            f"dense family needs 0 <= epsilon <= 1/(IJ) = {1.0 / (I * J):.6g}, got {epsilon}"
        )
    if epsilon > 0 and I % 2 == 1 and J % 2 == 1:
        raise DomainError(
            "dense family needs an even number of rows or columns for epsilon > 0 "
            "(the checkerboard cannot sum to 1 when both are odd)"
        )
    i = np.arange(1, I + 1)[:, None]
    j = np.arange(1, J + 1)[None, :]
    signs = np.where((i + j) % 2 == 0, 1.0, -1.0)
    return JointDistribution(1.0 / (I * J) + signs * epsilon)


def multiplicative_family(epsilon: float) -> JointDistribution:
    """4x4 law with cells proportional to (1 + (-1)^(i+j) epsilon) / 2^(i+j).

    Normalized by C = sum of the unnormalized cells; at epsilon = 0,
    C = (15/16)^2 and the law is a product of two geometric-type margins.
    All cells are positive for epsilon < 1; feasible for 0 <= epsilon <= 1.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise InfeasibleEpsilon(f"multiplicative family needs 0 <= epsilon <= 1, got {epsilon}")
    i = np.arange(1, 5)[:, None]
    j = np.arange(1, 5)[None, :]
    signs = np.where((i + j) % 2 == 0, 1.0, -1.0)
    weights = (1.0 + signs * epsilon) / 2.0 ** (i + j)
    return JointDistribution(weights / weights.sum())


@dataclass(frozen=True)
class AlternativeFamily:
    """A family kind plus dimensions, evaluated at one epsilon.

    ``at(eps)`` returns the same family at a different perturbation;
    ``distribution()`` materializes the JointDistribution (raising
    InfeasibleEpsilon outside the feasible range); ``default_eps_grid()``
    spans the family's interesting power range with 11 points.
    """

    kind: str
    I: int
    J: int
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise DomainError(f"unknown family {self.kind!r}; expected one of {_FAMILY_KINDS}")
        if self.kind == "multiplicative" and (self.I, self.J) != (4, 4):
            raise DomainError("the multiplicative family is 4x4 only")

    def at(self, epsilon: float) -> "AlternativeFamily":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def distribution(self) -> JointDistribution:
        if self.kind == "sparse":
            return sparse_family(self.I, self.J, self.epsilon)
        if self.kind == "dense":
            return dense_family(self.I, self.J, self.epsilon)
        return multiplicative_family(self.epsilon)

    def default_eps_grid(self) -> np.ndarray:
        if self.kind == "sparse":
            return np.linspace(0.0, 0.075, _GRID_POINTS)
        if self.kind == "dense":
            return np.linspace(0.0, 1.0 / (self.I * self.J), _GRID_POINTS)
        return np.linspace(0.0, 0.9, _GRID_POINTS)


# ---------------------------------------------------------------------------
# study result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestRate:
    """Rejection proportion of one (method, mode) over a replicate batch.

    ``undefined_count`` is the number of replicates whose classic-mode
    statistic was undefined (zero margin in the sampled table); those count
    as non-rejections, since an undefined statistic cannot reject.
    """

    method: str
    mode: str
    rejection_rate: float
    std_err: float
    undefined_count: int = 0


@dataclass(frozen=True)
class PowerCurvePoint:
    """Per-epsilon rejection rates with binomial standard errors."""

    epsilon: float
    n: int
    reps: int
    rates: tuple[TestRate, ...]


@dataclass(frozen=True)
class SubsampleStudy:
    """Rejection proportions over repeated m-out-of-n subsampling."""

    m: int
    reps: int
    rates: tuple[TestRate, ...]


def _validate_tests(tests: Sequence[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    tests = tuple((str(m), str(md)) for m, md in tests)
    if not tests:
        raise DomainError("at least one (method, mode) test is required")
    for method, mode in tests:
        _check_test(method, mode)
    return tests


def _aggregate_rates(
    tests: Sequence[tuple[str, str]], reps: int, blocks: Sequence[np.ndarray]
) -> tuple[TestRate, ...]:
    # blocks holds one (2, len(tests)) array of rejection and undefined
    # counts per block of replicates
    rejected, undefined = np.sum(blocks, axis=0)
    rates = []
    for (method, mode), rejections, undef in zip(tests, rejected, undefined):
        rate = int(rejections) / reps
        rates.append(
            TestRate(
                method=method,
                mode=mode,
                rejection_rate=rate,
                std_err=float(np.sqrt(rate * (1.0 - rate) / reps)),
                undefined_count=int(undef),
            )
        )
    return tuple(rates)


# ---------------------------------------------------------------------------
# study blocks and workers (module-level so process pools can pickle them)
# ---------------------------------------------------------------------------

_BLOCK_REPS = 64  # replicates per block: one generator and one pool task each


def _block_sizes(reps: int) -> list[int]:
    return [min(_BLOCK_REPS, reps - lo) for lo in range(0, reps, _BLOCK_REPS)]


def _study_block(task) -> np.ndarray:
    # One block of replicates from one generator: sample every table of the
    # block, then score every test on all of them at once.  Returns the
    # rejection and undefined counts, (2, len(tests)): a classic statistic
    # is undefined (NaN) on a table with a zero margin, and cannot reject.
    source, size, tests, config, stream_id = task
    gen = RandomStream(config.seed, stream_id).generator()
    tables = _sample_tables(*source, size, gen)
    p = _block_pvalues(tables, source[1], tests, config, gen)
    return np.stack([(p <= config.alpha).sum(axis=1), np.isnan(p).sum(axis=1)])


def _dhat_replicate(task):
    family, n, seed, rep_idx = task
    stream = RandomStream(seed).child(0, rep_idx)
    table = sample_table(family.distribution(), n, stream.child(0))
    return dhat_statistic(table).value


def _worker_count(threads: int, tasks: int) -> int:
    # a requested thread count never starts more processes than there are
    # cores or tasks, whatever the caller or USP_THREADS asked for
    return max(1, min(threads, os.cpu_count() or 1, tasks))


_POOL_MIN_CELLS = 400_000  # permuted cells of a study per pool worker


def _study_workers(tasks: list, threads: int) -> int:
    # One worker per _POOL_MIN_CELLS cells of the tables that the blocks'
    # permutation tests draw (size x B x I*J per block): below that, a pool
    # costs more to start than the blocks it would share out.  Cells, not
    # hypergeometric draws, because a 2x2 table costs more than its one draw.
    cells = sum(
        size * config.B * weights.size
        for (weights, _, _), size, tests, config, _ in tasks
        if any(mode == "permutation" for _, mode in tests)
    )
    return _worker_count(threads, min(len(tasks), cells // _POOL_MIN_CELLS))


def _map_replicates(worker, tasks: list, threads: int) -> list:
    workers = _worker_count(threads, len(tasks))
    if workers == 1:
        return [worker(t) for t in tasks]
    chunksize = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def power_curve(
    family: AlternativeFamily,
    eps_grid: Iterable[float],
    n: int,
    reps: int,
    tests: Sequence[tuple[str, str]],
    config: PermutationConfig | None = None,
    threads: int = 1,
) -> list[PowerCurvePoint]:
    """Rejection rate of each test at each epsilon, from fresh multinomial draws.

    For every epsilon in the grid, ``reps`` tables of ``n`` observations are
    sampled from the family; every configured (method, mode) test runs on
    each table at level ``config.alpha``.  Streams are keyed by (seed,
    epsilon index, block index), and all blocks of all epsilons go through
    one pool: output is identical for any ``threads``.
    """
    _require_positive_int(reps, "reps")
    tests = _validate_tests(tests)
    _require_count(n, "sample size")
    for method, _ in tests:
        _require_sample(method, n)
    if config is None:
        config = PermutationConfig()
    grid = [float(eps) for eps in eps_grid]
    sizes = _block_sizes(reps)
    tasks = []
    for eps_idx, eps in enumerate(grid):
        # materializing the law checks feasibility before any block runs
        source = (family.at(eps).distribution().probs, int(n), True)
        tasks += [(source, size, tests, config, (eps_idx, k)) for k, size in enumerate(sizes)]
    blocks = _map_replicates(_study_block, tasks, _study_workers(tasks, threads))
    per_eps = len(sizes)
    return [
        PowerCurvePoint(
            epsilon=eps,
            n=n,
            reps=reps,
            rates=_aggregate_rates(tests, reps, blocks[i * per_eps : (i + 1) * per_eps]),
        )
        for i, eps in enumerate(grid)
    ]


def dhat_samples(
    family: AlternativeFamily,
    n: int,
    epsilon: float,
    reps: int,
    seed: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """Independent D-hat values on multinomial draws from a family.

    Raw material for distribution plots (violins etc.); this package only
    emits the samples.
    """
    if n < 4:
        raise SampleTooSmall(f"dhat needs n >= 4, got n={n}")
    _require_positive_int(reps, "reps")
    fam = family.at(float(epsilon))
    fam.distribution()
    tasks = [(fam, n, seed, r) for r in range(reps)]
    return np.array(_map_replicates(_dhat_replicate, tasks, threads), dtype=np.float64)


def subsample_study(
    table: ContingencyTable,
    m: int,
    reps: int,
    tests: Sequence[tuple[str, str]],
    config: PermutationConfig | None = None,
    threads: int = 1,
    replace: bool = True,
) -> SubsampleStudy:
    """Rejection proportion of each test over repeated size-m redraws.

    Each replicate draws ``m`` observations from the table and runs every
    configured test at level ``config.alpha``.  With ``replace=True`` (the
    default) the draw is m i.i.d. observations from the table's empirical
    distribution, which is the resampling scheme behind the reference
    rejection proportions on the bundled datasets; ``replace=False`` draws
    without replacement instead, so the subsample never distorts the
    original counts (and m = n returns the table itself every time).
    """
    if m < 4:
        raise SampleTooSmall(f"subsample tests need m >= 4, got m={m}")
    _require_count(m, "subsample size")
    _require_positive_int(reps, "reps")
    if m > table.n:
        raise SubsampleTooLarge(f"subsample size {m} exceeds table total {table.n}")
    if not replace:
        _require_hypergeometric_total(table.n)
    tests = _validate_tests(tests)
    if config is None:
        config = PermutationConfig()
    weights = table.counts / table.n if replace else table.counts
    source = (weights, int(m), replace)
    tasks = [
        (source, size, tests, config, (0, k)) for k, size in enumerate(_block_sizes(reps))
    ]
    blocks = _map_replicates(_study_block, tasks, _study_workers(tasks, threads))
    return SubsampleStudy(m=m, reps=reps, rates=_aggregate_rates(tests, reps, blocks))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

POWER_CSV_HEADER = "epsilon,n,reps,method,mode,rejection_rate,std_err"
DHAT_CSV_HEADER = "epsilon,n,rep,dhat"
SUBSAMPLE_CSV_HEADER = "m,reps,method,mode,rejection_rate,std_err"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def power_curve_csv(points: Sequence[PowerCurvePoint]) -> str:
    lines = [POWER_CSV_HEADER]
    for pt in points:
        for rate in pt.rates:
            lines.append(
                f"{_fmt(pt.epsilon)},{pt.n},{pt.reps},{rate.method},{rate.mode},"
                f"{_fmt(rate.rejection_rate)},{_fmt(rate.std_err)}"
            )
    return "\n".join(lines) + "\n"


def dhat_samples_csv(epsilon: float, n: int, values: Sequence[float]) -> str:
    lines = [DHAT_CSV_HEADER]
    for rep, value in enumerate(values):
        lines.append(f"{_fmt(epsilon)},{n},{rep},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def subsample_study_csv(study: SubsampleStudy) -> str:
    lines = [SUBSAMPLE_CSV_HEADER]
    for rate in study.rates:
        lines.append(
            f"{study.m},{study.reps},{rate.method},{rate.mode},"
            f"{_fmt(rate.rejection_rate)},{_fmt(rate.std_err)}"
        )
    return "\n".join(lines) + "\n"
