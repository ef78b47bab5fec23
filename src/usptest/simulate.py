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

``power_curve`` and ``subsample_study`` share one runner, in blocks of a
fixed number of replicates (``_BLOCK_REPS``, a code constant).  Each block
draws from one generator keyed by (master seed, source index, block index),
the source being an epsilon of a power curve or the one table of a
subsampling study: it samples all of the block's tables in one call, then
scores every test on them through ``permutation._block_pvalues``, where a
replicate stops drawing permuted tables once its decision is fixed (the
stopping rule is written out in the docstring of ``usptest.permutation``).
A stopped replicate counts as a non-rejection.  All permutation tests of a
replicate score the same permuted tables; each is still an exact
permutation test, because every test compares its statistic over the same
exchangeable draws.  Classic tests score all of a block's tables with one
reduction.  Workers take whole blocks, and the chunks depend on the block
alone, so results are bit-identical for any worker count, and workers never
share streams.  ``dhat_samples`` runs in the same blocks, but replicate r
draws its one table on its own substream (0, r, 0), whatever its block.

``threads``, an integer >= 1, is an upper bound on the workers, and a study
picks one of three modes from the cells of the tables that its permutation
tests would draw without stopping.  From ``_POOL_MIN_CELLS`` cells per
worker it starts worker processes; from ``_THREAD_MIN_CELLS`` cells per
worker, worker threads, which start in well under a millisecond and overlap
where numpy releases the interpreter lock; below that it runs in the calling
thread, where a pool would cost more to start than it saves.
``dhat_samples``, whose loop holds the lock, starts one worker process per
``_POOL_MIN_REPS`` replicates and never threads.  None starts more workers
than it has blocks or the machine has cores.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InfeasibleEpsilon, SampleTooSmall
from .numerics import _MAX_UINT64, RandomStream, _require_int
from .permutation import PermutationConfig, _block_pvalues, _check_tests
from .stats import _dhat_value, _require_sample
from .table import (
    ContingencyTable,
    JointDistribution,
    _require_sample_size,
    _sample_tables,
    _subsample_source,
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
    I, J = _require_int(I, "sparse family I", 2), _require_int(J, "sparse family J", 2)
    q = 2.0 ** -np.arange(1, I + 1) / (1.0 - 2.0**-I)
    r = 2.0 ** -np.arange(1, J + 1) / (1.0 - 2.0**-J)
    probs = np.outer(q, r)
    if not epsilon >= 0:
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
    I, J = _require_int(I, "dense family I", 2), _require_int(J, "dense family J", 2)
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


class _Family(NamedTuple):
    law: Callable[[int, int, float], JointDistribution]  # (I, J, epsilon) -> law
    dims: tuple[int, int]  # default (I, J)
    eps_top: Callable[[int, int], float]  # (I, J) -> top of the default epsilon grid


_FAMILIES = {
    "sparse": _Family(sparse_family, (5, 8), lambda I, J: 0.075),
    "dense": _Family(dense_family, (6, 8), lambda I, J: 1.0 / (I * J)),
    "multiplicative": _Family(lambda I, J, eps: multiplicative_family(eps), (4, 4), lambda I, J: 0.9),
}


@dataclass(frozen=True)
class AlternativeFamily:
    """A family kind plus dimensions, evaluated at one epsilon.

    ``I`` and ``J`` default to the kind's own.  ``at(eps)`` returns the same
    family at a different perturbation; ``distribution()`` materializes the
    JointDistribution (raising InfeasibleEpsilon outside the feasible range);
    ``default_eps_grid()`` spans the family's interesting power range.
    """

    kind: str
    I: int | None = None
    J: int | None = None
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES:
            raise DomainError(f"unknown family {self.kind!r}; expected one of {tuple(_FAMILIES)}")
        for dim, default in zip("IJ", _FAMILIES[self.kind].dims):
            value = getattr(self, dim)
            if value is not None:
                value = _require_int(value, f"{self.kind} family {dim}", 2)
            object.__setattr__(self, dim, default if value is None else value)
        if self.kind == "multiplicative" and (self.I, self.J) != (4, 4):
            raise DomainError("the multiplicative family is 4x4 only")

    def at(self, epsilon: float) -> "AlternativeFamily":
        return dataclasses.replace(self, epsilon=float(epsilon))

    def distribution(self) -> JointDistribution:
        return _FAMILIES[self.kind].law(self.I, self.J, self.epsilon)

    def default_eps_grid(self) -> np.ndarray:
        return np.linspace(0.0, _FAMILIES[self.kind].eps_top(self.I, self.J), _GRID_POINTS)


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

_BLOCK_REPS = 64  # replicates per block and per pool task; a study block has one generator


def _block_sizes(reps: int) -> list[int]:
    return [min(_BLOCK_REPS, reps - lo) for lo in range(0, reps, _BLOCK_REPS)]


def _study_block(task) -> np.ndarray:
    # One block of replicates from one generator: sample every table of the
    # block, then score every test on all of them at once, each replicate
    # drawing permuted tables only until its decision is fixed.  Returns the
    # rejection and undefined counts, (2, len(tests)): a classic statistic
    # is undefined (NaN) on a table with a zero margin, and cannot reject.
    source, size, tests, config, stream_id = task
    gen = RandomStream(config.seed, stream_id).generator()
    tables = _sample_tables(*source, size, gen)
    p = _block_pvalues(tables, source[1], tests, config, gen, stop=True)
    return np.stack([(p <= config.alpha).sum(axis=1), np.isnan(p).sum(axis=1)])


def _dhat_block(task) -> list[float]:
    # replicates lo .. lo + size - 1 of the call's one law; replicate r draws
    # on its own substream (0, r, 0), so its value does not depend on its block
    probs, n, seed, lo, size = task
    values = []
    for r in range(lo, lo + size):
        gen = RandomStream(seed, (0, r, 0)).generator()
        values.append(_dhat_value(_sample_tables(probs, n, True, 1, gen)[0], n))
    return values


def _worker_count(threads: int, tasks: int) -> int:
    # a requested thread count never starts more workers than there are
    # cores or tasks, whatever the caller asked for
    return max(1, min(threads, os.cpu_count() or 1, tasks))


_POOL_MIN_CELLS = 500_000  # permuted cells of a study per worker process
# Permuted cells of a study per worker thread.  Threads overlap only where
# numpy releases the interpreter lock (two threads of Generator.permuted
# did 1.02-1.7x the work of one in the same time, over repeated runs on 2
# cores), and cost about 0.2 ms to start where a process pool costs 10-40
# ms.  On 2 cores, sparse 5x8, n = 100, B = 99, two epsilons, medians of 41
# interleaved calls: two threads took 0.99-1.03x the serial time at 95 040
# cells (12 replicates), 0.86-0.89x at 126 720 (16) and 0.86-0.89x at
# 158 400 (20).
_THREAD_MIN_CELLS = 60_000
# D-hat replicates per pool worker.  On 2 cores, dense n = 100, medians of
# 5 calls: a 2-process pool tied with the calling process at 2 000 replicates
# (114 against 117 ms) and won at 4 000 (185 against 202 ms) and 10 000
# (274 against 406 ms); sparse at 2 replicates took 39.5 ms in a pool against
# 0.3 ms serial, and at 100 replicates 51.7 against 5.6 ms.  Its loop holds
# the interpreter lock, so threads gain nothing: sparse, 10 000 replicates
# at threads=2 took 0.46 s on two threads, 0.40 s serial and 0.25 s on two
# processes.
_POOL_MIN_REPS = 2_000


def _study_workers(tasks: list, threads: int) -> tuple[int, bool]:
    # (workers, processes): one worker process per _POOL_MIN_CELLS cells of
    # the tables that the blocks' permutation tests would draw without
    # stopping (size x B x I*J per block), else one worker thread per
    # _THREAD_MIN_CELLS cells: below that, a pool costs more to start than
    # the blocks it would share out.  Cells, not hypergeometric draws,
    # because a 2x2 table costs more than its one draw.  Stopping makes the
    # count an upper bound: a null dense 6x8 study at n = 100, B = 99 on 2
    # cores took 25 ms serial against 49 ms in a process pool at 3 blocks
    # (912 384 cells), and 33 against 35 ms at 4 blocks (1 216 512 cells); at
    # epsilon = 0.01, where few replicates stop, the pool tied at 3 blocks
    # (54 against 53 ms) and won at 4 (68 against 57 ms).  So two processes
    # start from 4 such blocks.  Between the two rules threads win, and above
    # the process rule processes do: on the documented sparse and dense power
    # calls two threads took 1.15x and 1.11x the time of two processes.
    cells = sum(
        size * config.B * weights.size
        for (weights, _, _), size, tests, config, _ in tasks
        if any(mode == "permutation" for _, mode in tests)
    )
    processes = _worker_count(threads, min(len(tasks), cells // _POOL_MIN_CELLS))
    if processes > 1:
        return processes, True
    return _worker_count(threads, min(len(tasks), cells // _THREAD_MIN_CELLS)), False


def _map_replicates(worker, tasks: list, workers: int, processes: bool = True) -> list:
    if workers == 1:
        return [worker(t) for t in tasks]
    # imported here, the one place a pool starts, so commands that never
    # start one do not pay for the import; each executor's module loads on
    # first use
    import concurrent.futures as cf

    executor = cf.ProcessPoolExecutor if processes else cf.ThreadPoolExecutor
    chunksize = max(1, len(tasks) // (workers * 8))  # threads ignore it
    with executor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _study(
    sources: list, reps: int, tests, config, threads: int, size: str = "n"
) -> list[tuple[TestRate, ...]]:
    # Rejection rates of every test over reps tables from each source, a
    # (weights, n, replace) triple for table._sample_tables; the caller checks
    # reps, and names the table size as its user set it (n, or a subsample's
    # m).  Source i runs its blocks on streams (i, block), and every block of
    # every source goes through one pool: output is identical for any threads.
    _require_int(threads, "threads", 1)
    tests = _check_tests(tests)
    for _, n, _ in sources:
        if n < 2:
            raise SampleTooSmall(
                f"a study needs {size} >= 2 observations per table, got {size}={n}: "
                f"with fewer, the margins fix the table, so there is nothing to test"
            )
        for method, _ in tests:
            _require_sample(method, n, size)
    if config is None:
        config = PermutationConfig()
    sizes = _block_sizes(reps)
    tasks = [
        (source, size, tests, config, (i, k))
        for i, source in enumerate(sources)
        for k, size in enumerate(sizes)
    ]
    blocks = _map_replicates(_study_block, tasks, *_study_workers(tasks, threads))
    per = len(sizes)
    return [
        _aggregate_rates(tests, reps, blocks[i * per : (i + 1) * per])
        for i in range(len(sources))
    ]


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
    n = _require_sample_size(n)
    grid = [float(eps) for eps in eps_grid]
    # materializing each law checks feasibility before any block runs
    sources = [(family.at(eps).distribution().probs, n, True) for eps in grid]
    reps = _require_int(reps, "reps", 1)
    rates = _study(sources, reps, tests, config, threads)
    return [PowerCurvePoint(epsilon=eps, n=n, reps=reps, rates=r) for eps, r in zip(grid, rates)]


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
    emits the samples.  The law is built once per call, and replicate r
    draws its table on substream (0, r, 0) of ``seed``: output is identical
    for any ``threads``.  One worker process starts per ``_POOL_MIN_REPS``
    replicates, up to ``threads`` and the number of blocks; fewer replicates
    run in the calling thread.
    """
    n = _require_sample_size(n)
    _require_sample("dhat", n)
    _require_int(reps, "reps", 1)
    _require_int(seed, "seed", 0, _MAX_UINT64)
    _require_int(threads, "threads", 1)
    probs = family.at(float(epsilon)).distribution().probs
    tasks = [(probs, n, seed, k * _BLOCK_REPS, s) for k, s in enumerate(_block_sizes(reps))]
    workers = _worker_count(threads, min(len(tasks), reps // _POOL_MIN_REPS))
    return np.concatenate(_map_replicates(_dhat_block, tasks, workers), dtype=np.float64)


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
    source = _subsample_source(table, m, replace)
    reps = _require_int(reps, "reps", 1)
    (rates,) = _study([source], reps, tests, config, threads, "m")
    return SubsampleStudy(m=source[1], reps=reps, rates=rates)


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
