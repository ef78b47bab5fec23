"""Tests for alternative families, power curves, estimator samples, and
subsampling studies."""

import hashlib
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as scipy_stats

from usptest.errors import (
    DomainError,
    InfeasibleEpsilon,
    InvalidMode,
    SampleTooSmall,
    SubsampleTooLarge,
    UndefinedStatistic,
)
from oracles import exact_power
from usptest import permutation, simulate
from usptest.cli import main
from usptest.permutation import PermutationConfig, _classic_scores, run_test
from usptest.simulate import (
    DHAT_CSV_HEADER,
    POWER_CSV_HEADER,
    SUBSAMPLE_CSV_HEADER,
    AlternativeFamily,
    dense_family,
    dhat_samples,
    dhat_samples_csv,
    multiplicative_family,
    power_curve,
    power_curve_csv,
    sparse_family,
    sparse_max_epsilon,
    subsample_study,
    subsample_study_csv,
    _BLOCK_REPS,
    _POOL_MIN_CELLS,
    _THREAD_MIN_CELLS,
    _block_sizes,
    _study_workers,
    _worker_count,
)
from usptest import stats
from usptest.numerics import RandomStream
from usptest.stats import dependence_measure
from usptest.table import JointDistribution, _sample_tables, sample_table, validate_table

PERM_TESTS = [("usp", "permutation"), ("pearson", "permutation"), ("g", "permutation")]

MARITAL = validate_table(
    [
        [18, 36, 21, 9, 6],
        [12, 36, 45, 36, 21],
        [6, 9, 9, 3, 3],
        [3, 9, 9, 6, 3],
    ]
)


def _start_pools(monkeypatch, kind):
    # lower kind's rule to one cell, so every multi-block study starts that
    # pool; the process rule is tried first, so it wins when both apply
    rule = "_THREAD_MIN_CELLS" if kind == "thread" else "_POOL_MIN_CELLS"
    monkeypatch.setattr(simulate, rule, 1)


class TestSparseFamily:
    def test_corner_cell_and_normalization(self):
        d = sparse_family(5, 8, 0.0)
        assert d.probs[0, 0] == pytest.approx(2048 / 7905, abs=1e-15)
        outer = np.outer(d.row_margins, d.col_margins)
        np.testing.assert_allclose(d.probs, outer, rtol=0, atol=1e-14)

    def test_margins_unchanged_by_perturbation(self):
        base = sparse_family(5, 8, 0.0)
        bumped = sparse_family(5, 8, 0.05)
        np.testing.assert_allclose(bumped.row_margins, base.row_margins, atol=1e-14)
        np.testing.assert_allclose(bumped.col_margins, base.col_margins, atol=1e-14)

    def test_dependence_closed_form(self):
        rng = np.random.default_rng(15)
        for eps in rng.uniform(0.0, sparse_max_epsilon(5, 8), size=20):
            d = sparse_family(5, 8, float(eps))
            assert dependence_measure(d) == pytest.approx(4 * eps**2, rel=1e-10, abs=1e-14)

    def test_max_epsilon_value(self):
        # The binding constraint is the off-diagonal pair of perturbed cells,
        # each with base mass q_1 r_2 = q_2 r_1 = 1024/7905 for the 5x8 family.
        assert sparse_max_epsilon(5, 8) == pytest.approx(1024 / 7905, abs=1e-15)

    def test_infeasible(self):
        with pytest.raises(InfeasibleEpsilon):
            sparse_family(5, 8, 0.13)
        with pytest.raises(InfeasibleEpsilon):
            sparse_family(5, 8, -0.01)
        with pytest.raises(InfeasibleEpsilon, match="^epsilon must be >= 0, got nan$"):
            sparse_family(5, 8, float("nan"))
        with pytest.raises(DomainError):
            sparse_family(1, 8, 0.0)


class TestDenseFamily:
    def test_uniform_at_zero(self):
        d = dense_family(6, 8, 0.0)
        np.testing.assert_allclose(d.probs, 1 / 48, atol=1e-16)

    def test_margins_uniform_even_dims(self):
        d = dense_family(6, 8, 0.015)
        np.testing.assert_allclose(d.row_margins, 1 / 6, atol=1e-14)
        np.testing.assert_allclose(d.col_margins, 1 / 8, atol=1e-14)

    def test_dependence_closed_form(self):
        rng = np.random.default_rng(16)
        for eps in rng.uniform(0.0, 1 / 48, size=20):
            d = dense_family(6, 8, float(eps))
            assert dependence_measure(d) == pytest.approx(48 * eps**2, rel=1e-9, abs=1e-15)

    def test_checkerboard_signs(self):
        d = dense_family(2, 2, 0.1)
        np.testing.assert_allclose(
            d.probs, [[0.25 + 0.1, 0.25 - 0.1], [0.25 - 0.1, 0.25 + 0.1]], atol=1e-15
        )

    def test_feasibility_bounds(self):
        with pytest.raises(InfeasibleEpsilon):
            dense_family(6, 8, 1 / 48 + 1e-9)
        with pytest.raises(InfeasibleEpsilon):
            dense_family(6, 8, -1e-9)

    def test_odd_odd_needs_zero_epsilon(self):
        d = dense_family(3, 3, 0.0)
        outer = np.outer(d.row_margins, d.col_margins)
        np.testing.assert_allclose(d.probs, outer, rtol=0, atol=1e-14)
        with pytest.raises(DomainError):
            dense_family(3, 3, 0.01)
        # one even dimension is enough to rebalance the checkerboard
        d = dense_family(3, 4, 0.01)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-14)


class TestMultiplicativeFamily:
    def test_product_at_zero(self):
        d = multiplicative_family(0.0)
        outer = np.outer(d.row_margins, d.col_margins)
        np.testing.assert_allclose(d.probs, outer, rtol=0, atol=1e-14)
        # normalization constant is (15/16)^2 at eps = 0
        assert d.probs[0, 0] == pytest.approx((1 / 4) / (225 / 256), abs=1e-15)

    def test_extreme_epsilon_still_valid(self):
        d = multiplicative_family(1.0)
        assert d.probs.min() == 0.0
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_dependent_when_perturbed(self):
        assert dependence_measure(multiplicative_family(0.5)) > 1e-4

    def test_feasibility(self):
        with pytest.raises(InfeasibleEpsilon):
            multiplicative_family(1.01)
        with pytest.raises(InfeasibleEpsilon):
            multiplicative_family(-0.2)


class TestAlternativeFamily:
    def test_kind_validation(self):
        with pytest.raises(DomainError):
            AlternativeFamily(kind="gaussian", I=2, J=2)

    def test_multiplicative_is_four_by_four(self):
        with pytest.raises(DomainError):
            AlternativeFamily(kind="multiplicative", I=5, J=8)

    def test_dimensions_default_per_kind(self):
        assert AlternativeFamily(kind="sparse") == AlternativeFamily(kind="sparse", I=5, J=8)
        assert AlternativeFamily(kind="dense") == AlternativeFamily(kind="dense", I=6, J=8)
        mult = AlternativeFamily(kind="multiplicative")
        assert (mult.I, mult.J) == (4, 4)
        # one dimension given, the other from the kind
        assert AlternativeFamily(kind="sparse", J=3) == AlternativeFamily(kind="sparse", I=5, J=3)

    @pytest.mark.parametrize(
        "bad, message",
        [(4.0, "must be an integer, got 4.0"), (5.0, "must be an integer, got 5.0"),
         ("6", "must be an integer, got '6'"), (1, "must be >= 2, got 1")],
    )
    @pytest.mark.parametrize("kind", ["sparse", "dense", "multiplicative"])
    def test_dimensions_are_integers_from_construction(self, kind, bad, message):
        # checked for every kind before the 4x4 rule, so the multiplicative
        # family too rejects 4.0, and a bad dimension never waits for
        # distribution()
        for dims, dim in (((bad, 4), "I"), ((4, bad), "J")):
            pattern = re.escape(f"{kind} family {dim} {message}") + "$"
            with pytest.raises(DomainError, match=pattern):
                AlternativeFamily(kind, *dims)
        fam = AlternativeFamily(kind, np.int64(4), 4)
        assert type(fam.I) is int and fam.I == 4

    def test_at_returns_new_family(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        shifted = fam.at(0.05)
        assert shifted.epsilon == 0.05
        assert fam.epsilon == 0.0
        assert shifted.distribution().probs[0, 0] == pytest.approx(2048 / 7905 + 0.05)

    def test_default_grids(self):
        sparse = AlternativeFamily(kind="sparse", I=5, J=8).default_eps_grid()
        dense = AlternativeFamily(kind="dense", I=6, J=8).default_eps_grid()
        mult = AlternativeFamily(kind="multiplicative", I=4, J=4).default_eps_grid()
        for grid in (sparse, dense, mult):
            assert len(grid) == 11
            assert grid[0] == 0.0
        assert sparse[-1] == pytest.approx(0.075)
        assert dense[-1] == pytest.approx(1 / 48)
        assert mult[-1] == pytest.approx(0.9)

    def test_infeasible_epsilon_surfaces_on_materialization(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8, epsilon=0.5)
        with pytest.raises(InfeasibleEpsilon):
            fam.distribution()

    @pytest.mark.parametrize(
        "dims, message",
        [((2.5, 4), "I must be an integer, got 2.5"), ((5, 5.5), "J must be an integer, got 5.5"),
         ((4.0, 4), "I must be an integer, got 4.0"), ((1, 4), "I must be >= 2, got 1"),
         ((4, 1), "J must be >= 2, got 1")],
    )
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_dimensions_are_integers_from_two(self, kind, dims, message):
        # unchecked, a fractional dimension surfaces as a probability sum error
        with pytest.raises(DomainError, match=f"^{kind} family {message}$"):
            AlternativeFamily(kind, *dims).distribution()
        with pytest.raises(DomainError, match=f"^{kind} family {message}$"):
            simulate._FAMILIES[kind].law(*dims, 0.0)
        assert AlternativeFamily(kind, np.int64(4), 4).distribution().I == 4


class TestDhatSamples:
    def test_unbiased_across_families(self):
        configs = [
            (AlternativeFamily(kind="sparse", I=5, J=8), (0.0, 0.03, 0.06)),
            (AlternativeFamily(kind="dense", I=6, J=8), (0.0, 0.01, 0.02)),
            (AlternativeFamily(kind="multiplicative", I=4, J=4), (0.0, 0.3, 0.6)),
        ]
        for fam, eps_values in configs:
            for eps in eps_values:
                target = dependence_measure(fam.at(eps).distribution())
                values = dhat_samples(fam, n=50, epsilon=eps, reps=4000, seed=31)
                se = values.std(ddof=1) / np.sqrt(len(values))
                assert abs(values.mean() - target) <= 3 * se, (fam.kind, eps)

    def test_variance_shrinks_with_n(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        small = dhat_samples(fam, n=100, epsilon=0.03, reps=1500, seed=7)
        large = dhat_samples(fam, n=400, epsilon=0.03, reps=1500, seed=7)
        assert large.var(ddof=1) < small.var(ddof=1)

    def test_deterministic_and_thread_invariant(self):
        fam = AlternativeFamily(kind="dense", I=6, J=8)
        a = dhat_samples(fam, n=40, epsilon=0.01, reps=40, seed=3)
        b = dhat_samples(fam, n=40, epsilon=0.01, reps=40, seed=3)
        c = dhat_samples(fam, n=40, epsilon=0.01, reps=40, seed=3, threads=2)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_replicate_r_is_dhat_of_substream_0_r_0(self, threads, pool_spy, monkeypatch):
        # the stream contract behind byte-identical dhat output: replicate r
        # is D-hat of one table of the family's law drawn on (seed; 0, r, 0)
        monkeypatch.setattr(simulate, "_POOL_MIN_REPS", 1)
        fam = AlternativeFamily(kind="sparse")
        law = fam.at(0.05).distribution()
        values = dhat_samples(fam, n=60, epsilon=0.05, reps=130, seed=23, threads=threads)
        expected = [
            stats.dhat_statistic(
                sample_table(law, 60, RandomStream(23).child(0, r).child(0))
            )
            for r in range(130)
        ]
        assert values.tolist() == expected
        assert pool_spy == ([("process", 2)] if threads == 2 else [])

    def test_replicates_go_to_the_pool_in_blocks(self, monkeypatch):
        # one task per block of _BLOCK_REPS replicates, the last one partial,
        # as in the studies; a task per replicate would pickle the law each time
        handed = []
        map_replicates = simulate._map_replicates

        def spy(worker, tasks, workers):
            handed.append([task[3:] for task in tasks])
            return map_replicates(worker, tasks, workers)

        monkeypatch.setattr(simulate, "_map_replicates", spy)
        values = dhat_samples(AlternativeFamily(kind="sparse"), n=60, epsilon=0.05, reps=130)
        assert handed == [[(0, 64), (64, 64), (128, 2)]]
        assert len(values) == 130

    def test_pool_only_where_the_replicates_pay(self, pool_spy):
        # one worker process per _POOL_MIN_REPS replicates, and never a
        # thread: on two cores, 100 replicates at threads=2 run in the
        # calling thread
        assert 100 < simulate._POOL_MIN_REPS
        fam = AlternativeFamily(kind="sparse")
        serial = dhat_samples(fam, n=100, epsilon=0.05, reps=100, seed=4)
        assert dhat_samples(fam, n=100, epsilon=0.05, reps=100, seed=4, threads=2).tolist() == (
            serial.tolist()
        )
        assert pool_spy == []

    def test_guards(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        with pytest.raises(SampleTooSmall, match="dhat statistic needs n >= 4, got n=3"):
            dhat_samples(fam, n=3, epsilon=0.0, reps=5)
        for bad_n in (None, "100", 100.0):
            with pytest.raises(DomainError, match=re.escape(f"sample size must be an integer, got {bad_n!r}")):
                dhat_samples(fam, n=bad_n, epsilon=0.0, reps=5)
        with pytest.raises(DomainError, match="sample size must be >= 0, got -1"):
            dhat_samples(fam, n=-1, epsilon=0.0, reps=5)
        with pytest.raises(DomainError):
            dhat_samples(fam, n=10, epsilon=0.0, reps=0)
        with pytest.raises(DomainError, match="reps must be an integer, got 2.5"):
            dhat_samples(fam, n=10, epsilon=0.0, reps=2.5)
        for seed in (1.5, "x", -1):
            with pytest.raises(DomainError, match=re.escape(f"got {seed!r}")):
                dhat_samples(fam, n=10, epsilon=0.0, reps=2, seed=seed)
        with pytest.raises(InfeasibleEpsilon, match="epsilon must be >= 0, got nan"):
            dhat_samples(fam, n=10, epsilon=float("nan"), reps=2)

    def test_size_past_the_int64_range_rejected(self):
        # numpy's multinomial sampler raised OverflowError at 2^63; one below
        # it is drawn and scored
        fam = AlternativeFamily(kind="sparse")
        with pytest.raises(DomainError, match=r"sample size must be below 2\^63.*got 9223372036854775808$"):
            dhat_samples(fam, n=2**63, epsilon=0.0, reps=1)
        assert np.isfinite(dhat_samples(fam, n=2**63 - 1, epsilon=0.0, reps=1)).all()


class TestPowerCurve:
    def test_size_is_exact_at_null(self):
        # alpha (B+1) integral makes the randomized permutation test exact,
        # so the epsilon = 0 rejection rate is alpha up to binomial noise.
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        cfg = PermutationConfig(B=19, alpha=0.2, seed=0)
        pts = power_curve(fam, [0.0], n=60, reps=250, tests=[("usp", "permutation")], config=cfg)
        rate = pts[0].rates[0].rejection_rate
        assert abs(rate - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / 250)

    def test_power_rises_with_epsilon(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        cfg = PermutationConfig(B=99, alpha=0.05, seed=1)
        pts = power_curve(
            fam, [0.0, 0.06], n=100, reps=60, tests=[("usp", "permutation")], config=cfg
        )
        assert pts[1].rates[0].rejection_rate > pts[0].rates[0].rejection_rate + 0.3

    def test_numpy_reps_are_reported_as_python_ints(self):
        cfg = PermutationConfig(B=9, alpha=0.2, seed=0)
        tests = [("usp", "permutation")]
        pts = power_curve(AlternativeFamily("sparse"), [0.0], 20, np.int64(3), tests, cfg)
        study = subsample_study(validate_table([[3, 1], [2, 4]]), 8, np.int64(3), tests, cfg)
        for reps, rate in ((pts[0].reps, pts[0].rates[0]), (study.reps, study.rates[0])):
            assert (type(reps), type(rate.rejection_rate), type(rate.std_err)) == (int, float, float)

    def test_classic_undefined_counted_not_rejected(self):
        # The sparse family's last column is tiny: at n = 40 most draws leave
        # it empty, so the classic statistic is undefined on many replicates.
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        cfg = PermutationConfig(B=19, alpha=0.05, seed=2)
        pts = power_curve(
            fam, [0.0], n=40, reps=80, tests=[("pearson", "classic")], config=cfg
        )
        rate = pts[0].rates[0]
        assert rate.undefined_count > 0
        assert rate.rejection_rate <= 1.0 - rate.undefined_count / 80

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_thread_count_never_changes_output(self, kind, pool_spy, monkeypatch):
        _start_pools(monkeypatch, kind)
        fam = AlternativeFamily(kind="dense", I=6, J=8)
        cfg = PermutationConfig(B=19, alpha=0.1, seed=4)
        kwargs = dict(n=30, reps=24, tests=PERM_TESTS, config=cfg)
        serial = power_curve(fam, [0.0, 0.02], **kwargs, threads=1)
        pooled = power_curve(fam, [0.0, 0.02], **kwargs, threads=2)
        assert pool_spy == [(kind, 2)]
        assert power_curve_csv(serial) == power_curve_csv(pooled)

    def test_infeasible_epsilon_rejected_upfront(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        with pytest.raises(InfeasibleEpsilon):
            power_curve(fam, [0.0, 0.9], n=20, reps=5, tests=[("usp", "permutation")])
        with pytest.raises(InfeasibleEpsilon, match="epsilon must be >= 0, got nan"):
            power_curve(fam, [float("nan")], n=20, reps=5, tests=[("usp", "permutation")])

    def test_test_list_validation(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        with pytest.raises(InvalidMode):
            power_curve(fam, [0.0], n=20, reps=5, tests=[("usp", "classic")])
        with pytest.raises(InvalidMode):
            power_curve(fam, [0.0], n=20, reps=5, tests=[("median", "permutation")])
        with pytest.raises(DomainError):
            power_curve(fam, [0.0], n=20, reps=5, tests=[])
        # one exceedance row would serve both entries, with two tie-breaks
        twice = [("pearson", "permutation"), ("g", "permutation"), ("pearson", "permutation")]
        with pytest.raises(DomainError, match="test \\('pearson', 'permutation'\\) is listed twice"):
            power_curve(fam, [0.0], n=20, reps=5, tests=twice)
        with pytest.raises(DomainError, match="test \\('g', 'classic'\\) is listed twice"):
            power_curve(fam, [0.0], n=20, reps=5, tests=[("g", "classic")] * 2)

    def test_test_list_entries_must_be_pairs(self):
        # a bare string, or an entry that is not a pair, raised "not enough
        # values to unpack" from the unpacking
        fam = AlternativeFamily("sparse")
        message = "tests must be a list of (method, mode) pairs, got 'usp'"
        with pytest.raises(DomainError, match=re.escape(message)):
            power_curve(fam, [0.0], 20, 2, "usp")
        for entry in [("usp",), ("usp", "permutation", "x"), "us", None]:
            message = f"a test must be a (method, mode) pair, got {entry!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                power_curve(fam, [0.0], 20, 2, [entry])
        with pytest.raises(DomainError, match="tests must be a list"):
            subsample_study(MARITAL, 10, 2, None)
        # any iterable pair will do, a list included
        pts = power_curve(fam, [0.0], 20, 2, [["g", "classic"]])
        assert (pts[0].rates[0].method, pts[0].rates[0].mode) == ("g", "classic")

    def test_sample_size_guards(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        with pytest.raises(SampleTooSmall):
            power_curve(fam, [0.0], n=3, reps=5, tests=[("usp", "permutation")])
        with pytest.raises(DomainError):
            power_curve(fam, [0.0], n=-1, reps=5, tests=[("g", "permutation")])
        with pytest.raises(DomainError, match="reps must be an integer, got 2.5"):
            power_curve(fam, [0.0], n=20, reps=2.5, tests=[("g", "permutation")])
        # an integral float would print as 100.0 in the CSV
        with pytest.raises(DomainError, match="sample size must be an integer, got 100.0"):
            power_curve(fam, [0.0], n=100.0, reps=5, tests=[("g", "permutation")])
        # numpy's multinomial sampler raised OverflowError at 2^63
        with pytest.raises(DomainError, match=r"sample size must be below 2\^63.*got 9223372036854775808$"):
            power_curve(fam, [0.0], n=2**63, reps=1, tests=[("g", "classic")])
        pts = power_curve(fam, [0.0], n=np.int64(100), reps=2, tests=[("g", "classic")])
        assert power_curve_csv(pts).splitlines()[1].startswith("0.0,100,2,")
        # the margins of a table of fewer than 2 observations fix it, so a
        # permutation test could only reject through its tie-break
        for n in (0, 1):
            with pytest.raises(SampleTooSmall, match=f"n >= 2 observations per table, got n={n}"):
                power_curve(fam, [0.0], n=n, reps=5, tests=[("pearson", "permutation")])
            with pytest.raises(SampleTooSmall, match="n >= 2"):
                power_curve(fam, [0.0], n=n, reps=5, tests=[("g", "classic")])

    def test_seed_must_be_an_integer(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        with pytest.raises(DomainError, match="seed must be an integer, got 1.5"):
            power_curve(fam, [0.0], n=20, reps=2, tests=[("g", "permutation")],
                        config=PermutationConfig(B=9, alpha=0.2, seed=1.5))


class TestSubsampleStudy:
    def test_full_size_without_replacement_reproduces_decision(self):
        # With replace=False and m = n every replicate tests the original
        # table, and the marital USP rejection is decisive at any seed.
        study = subsample_study(
            MARITAL,
            m=MARITAL.n,
            reps=20,
            tests=[("usp", "permutation")],
            config=PermutationConfig(B=99, alpha=0.05, seed=5),
            replace=False,
        )
        assert study.rates[0].rejection_rate == 1.0

    def test_replacement_schemes_differ_mechanically(self):
        # At m = n, drawing without replacement returns the table itself;
        # i.i.d. redraws almost surely do not.
        diag = validate_table([[10, 0], [0, 10]])
        gen = np.random.default_rng(0)
        kept = _sample_tables(diag.counts, diag.n, False, 5, gen)
        np.testing.assert_array_equal(kept, np.tile(diag.counts, (5, 1, 1)))
        # the bootstrap path perturbs at least one of a handful of redraws
        redrawn = _sample_tables(diag.counts / diag.n, diag.n, True, 8, gen)
        assert redrawn.shape == (8, 2, 2) and np.all(redrawn.sum(axis=(1, 2)) == diag.n)
        assert np.any(redrawn != diag.counts)

    def test_guards(self):
        with pytest.raises(SubsampleTooLarge):
            subsample_study(MARITAL, m=301, reps=5, tests=PERM_TESTS)
        # a subsample's size is m, and its messages say so
        with pytest.raises(SampleTooSmall, match="usp statistic needs m >= 4, got m=3$"):
            subsample_study(MARITAL, m=3, reps=5, tests=PERM_TESTS)
        # pearson and g take any total, as in power_curve
        small = subsample_study(MARITAL, m=3, reps=5, tests=[("pearson", "permutation")])
        assert (small.m, small.reps, len(small.rates)) == (3, 5, 1)
        for m in (0, 1):
            for replace in (True, False):
                with pytest.raises(SampleTooSmall, match=f"needs m >= 2 .*, got m={m}:"):
                    subsample_study(MARITAL, m=m, reps=5, tests=[("pearson", "permutation")],
                                    replace=replace)
        with pytest.raises(DomainError):
            subsample_study(MARITAL, m=100, reps=0, tests=PERM_TESTS)
        with pytest.raises(DomainError, match="reps must be an integer, got 2.5"):
            subsample_study(MARITAL, m=100, reps=2.5, tests=PERM_TESTS)
        with pytest.raises(DomainError, match="subsample size must be an integer, got 10.5"):
            subsample_study(MARITAL, m=10.5, reps=5, tests=PERM_TESTS)
        with pytest.raises(DomainError, match="subsample size must be an integer, got 84.0"):
            subsample_study(MARITAL, m=84.0, reps=5, tests=PERM_TESTS)
        with pytest.raises(DomainError, match="subsample size must be an integer, got 3.0"):
            subsample_study(MARITAL, m=3.0, reps=5, tests=PERM_TESTS)
        with pytest.raises(DomainError, match="at least a 2x2 table"):
            subsample_study(validate_table([[4, 5, 6]]), m=10, reps=5,
                            tests=[("pearson", "classic")])
        with pytest.raises(DomainError, match="test \\('usp', 'permutation'\\) is listed twice"):
            subsample_study(MARITAL, m=100, reps=5, tests=[("usp", "permutation")] * 2)
        with pytest.raises(DomainError, match="below 10\\^9"):
            subsample_study(validate_table([[10**9, 1], [1, 1]]), m=10, reps=5,
                            tests=PERM_TESTS, replace=False)

    def test_empty_table_is_refused_without_a_warning(self):
        # the empirical law of an empty table divided 0 by 0 with a
        # RuntimeWarning before the study refused m = 0
        empty = validate_table([[0, 0], [0, 0]])
        for replace in (True, False):
            with pytest.raises(SampleTooSmall, match="got m=0"):
                subsample_study(empty, m=0, reps=1, tests=[("g", "classic")], replace=replace)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_thread_count_never_changes_output(self, kind, pool_spy, monkeypatch):
        # 80 replicates: two blocks, so threads=2 has two tasks to share out
        _start_pools(monkeypatch, kind)
        cfg = PermutationConfig(B=19, alpha=0.1, seed=9)
        kwargs = dict(m=60, reps=_BLOCK_REPS + 16, tests=[("usp", "permutation")], config=cfg)
        serial = subsample_study(MARITAL, **kwargs, threads=1)
        pooled = subsample_study(MARITAL, **kwargs, threads=2)
        assert pool_spy == [(kind, 2)]
        assert subsample_study_csv(serial) == subsample_study_csv(pooled)


class TestStudyBlocks:
    @pytest.mark.parametrize("replace", [True, False])
    def test_permuted_tables_keep_their_source_margins(self, monkeypatch, replace):
        # Five sampled tables, B = 10 permuted tables each.  A cap of 25
        # tables per chunk holds two whole sources per chunk; a cap of 7
        # splits every source over two chunks.
        weights = MARITAL.counts / MARITAL.n if replace else MARITAL.counts
        gen = np.random.default_rng(12)
        tables = _sample_tables(weights, 60, replace, 5, gen)
        assert tables.shape == (5, 4, 5) and np.all(tables.sum(axis=(1, 2)) == 60)
        rows, cols = tables.sum(axis=2), tables.sum(axis=1)
        for cap in (25, 7):
            monkeypatch.setattr(permutation, "_BLOCK_CELLS", cap * 20)
            drawn = np.zeros(5, dtype=int)
            chunks = 0
            for lo, hi, chunk in permutation._permuted(rows, cols, 10, gen):
                chunk = chunk.reshape(hi - lo, -1, 4, 5)
                assert chunk.shape[1] <= cap
                np.testing.assert_array_equal(
                    chunk.sum(axis=3), np.broadcast_to(rows[lo:hi, None], chunk.shape[:3])
                )
                np.testing.assert_array_equal(
                    chunk.sum(axis=2),
                    np.broadcast_to(cols[lo:hi, None], chunk.shape[:2] + (5,)),
                )
                assert np.all(chunk >= 0)
                drawn[lo:hi] += chunk.shape[1]
                chunks += 1
            assert drawn.tolist() == [10] * 5
            assert chunks == (3 if cap == 25 else 10)

    def test_shuffled_tables_keep_their_source_margins(self, monkeypatch):
        # 30 observations over 12 free cells: the label shuffle, which sizes
        # its chunks by the 30 labels of a table.  A cap of 25 tables per
        # chunk holds two whole sources per chunk; a cap of 7 splits every
        # source over two chunks.
        monkeypatch.setattr(permutation, "_draw", None)
        gen = np.random.default_rng(13)
        tables = _sample_tables(MARITAL.counts / MARITAL.n, 30, True, 5, gen)
        rows, cols = tables.sum(axis=2), tables.sum(axis=1)
        for cap in (25, 7):
            monkeypatch.setattr(permutation, "_BLOCK_CELLS", cap * 30)
            drawn = np.zeros(5, dtype=int)
            chunks = 0
            for lo, hi, chunk in permutation._permuted(rows, cols, 10, gen):
                chunk = chunk.reshape(hi - lo, -1, 4, 5)
                assert chunk.shape[1] <= cap and (hi - lo) * chunk.shape[1] <= cap
                np.testing.assert_array_equal(
                    chunk.sum(axis=3), np.broadcast_to(rows[lo:hi, None], chunk.shape[:3])
                )
                np.testing.assert_array_equal(
                    chunk.sum(axis=2),
                    np.broadcast_to(cols[lo:hi, None], chunk.shape[:2] + (5,)),
                )
                drawn[lo:hi] += chunk.shape[1]
                chunks += 1
            assert drawn.tolist() == [10] * 5
            assert chunks == (3 if cap == 25 else 10)

    def test_partial_last_block(self):
        reps = 2 * _BLOCK_REPS + _BLOCK_REPS // 2
        assert _block_sizes(reps) == [_BLOCK_REPS, _BLOCK_REPS, _BLOCK_REPS // 2]

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_thread_count_never_changes_output_across_blocks(self, kind, pool_spy, monkeypatch):
        # 2.5 blocks per study: two full blocks and a partial last one
        _start_pools(monkeypatch, kind)
        reps = 2 * _BLOCK_REPS + _BLOCK_REPS // 2
        cfg = PermutationConfig(B=19, alpha=0.1, seed=21)
        tests = PERM_TESTS + [("g", "classic")]
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        curves = [
            power_curve_csv(power_curve(fam, [0.0, 0.06], n=40, reps=reps, tests=tests,
                                        config=cfg, threads=threads))
            for threads in (1, 2)
        ]
        assert curves[0] == curves[1]
        for replace in (True, False):
            studies = [
                subsample_study_csv(subsample_study(MARITAL, m=80, reps=reps, tests=tests,
                                                    config=cfg, threads=threads,
                                                    replace=replace))
                for threads in (1, 2)
            ]
            assert studies[0] == studies[1]
            assert f"80,{reps},usp,permutation," in studies[0]
        assert pool_spy == [(kind, 2)] * 3

    def test_more_threads_than_cores_keep_the_bytes(self, pool_spy, monkeypatch):
        # blocks share no mutable state: eight worker threads on the machine's
        # cores, switching as often as the interpreter allows, print the
        # bytes of one thread
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        _start_pools(monkeypatch, "thread")
        fam = AlternativeFamily(kind="dense", I=6, J=8)
        kwargs = dict(n=30, reps=2 * _BLOCK_REPS, tests=PERM_TESTS + [("g", "classic")],
                      config=PermutationConfig(B=19, alpha=0.1, seed=8))
        grid = [0.0, 0.005, 0.01, 0.02]
        serial = power_curve_csv(power_curve(fam, grid, **kwargs, threads=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = power_curve_csv(power_curve(fam, grid, **kwargs, threads=8))
        finally:
            sys.setswitchinterval(interval)
        assert pool_spy == [("thread", 8)]
        assert pooled == serial


class TestStopping:
    def test_null_study_draws_fewer_tables(self, monkeypatch):
        # sparse 5x8 at the null: most replicates stop after B/8 or 3B/8
        # tables, once all three permutation tests have 5 or more exceedances
        drawn = []
        permuted = permutation._permuted

        def spy(rows, cols, b, gen):
            drawn.append(len(rows) * b)
            return permuted(rows, cols, b, gen)

        monkeypatch.setattr(permutation, "_permuted", spy)
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        reps, cfg = 128, PermutationConfig(B=99, alpha=0.05, seed=3)
        pts = power_curve(fam, [0.0], n=100, reps=reps, tests=PERM_TESTS, config=cfg)
        assert sum(drawn) < reps * cfg.B
        assert all(0 < rate.rejection_rate < 0.2 for rate in pts[0].rates)

    def test_small_patefield_blocks_draw_in_one_chunk(self, monkeypatch):
        # marital at m = 150 is drawn by Patefield's method, whose chunks
        # each cost about 300 tables: 4 x 999 tables are too few to split,
        # 64 x 999 start with a chunk of B/8
        chunks = []
        permuted = permutation._permuted

        def spy(rows, cols, b, gen):
            chunks.append((len(rows), b))
            return permuted(rows, cols, b, gen)

        monkeypatch.setattr(permutation, "_permuted", spy)
        cfg = PermutationConfig(B=999, alpha=0.05, seed=4)
        for reps, first in ((4, (4, 999)), (64, (64, 124))):
            assert (reps * cfg.B < permutation._STOP_MIN_TABLES) == (reps == 4)
            chunks.clear()
            subsample_study(MARITAL, m=150, reps=reps, tests=PERM_TESTS, config=cfg, replace=False)
            assert chunks[0] == first


class _FixedLaw:
    # a family of one law: power_curve reads a family through
    # at(epsilon).distribution() alone
    def __init__(self, probs):
        self.law = JointDistribution(probs)

    def at(self, epsilon):
        return self

    def distribution(self):
        return self.law


class TestExactStudyRates:
    # each study path's rejection count against the exact power of its test,
    # summed over every table of n draws (tests/oracles.exact_power).  The
    # cells are powers of 2, so the sampler draws from the law the oracle
    # sums over; [[2, 1, 1], [1, 1, 2]] is the same law as an empirical one
    LAW = [[Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
           [Fraction(1, 8), Fraction(1, 8), Fraction(1, 4)]]
    TESTS = [("usp", "permutation"), ("pearson", "classic"), ("g", "classic")]
    N, B, ALPHA, REPS = 8, 19, "0.1", 4000
    CONFIG = PermutationConfig(B=B, alpha=float(ALPHA), seed=3)

    @pytest.fixture(scope="class")
    def powers(self):
        # usp 0.158439 over the 1 287 tables of 8 draws
        return [exact_power(self.LAW, self.N, test, self.B, self.ALPHA) for test in self.TESTS]

    # each path runs once for all three tests, as a study scores them on the
    # same tables; the tests below check one method's count each
    @pytest.fixture(scope="class")
    def power_curve_rates(self):
        (point,) = power_curve(_FixedLaw(self.LAW), [0.0], self.N, self.REPS, self.TESTS, self.CONFIG)
        return point.rates

    @pytest.fixture(scope="class")
    def subsample_study_rates(self):
        table = validate_table([[2, 1, 1], [1, 1, 2]])
        return subsample_study(table, self.N, self.REPS, self.TESTS, self.CONFIG, replace=True).rates

    def assert_within_exact_power(self, rates, powers, index):
        rate, power, test = rates[index], powers[index], self.TESTS[index]
        assert (rate.method, rate.mode) == test
        count = round(rate.rejection_rate * self.REPS)
        lo, hi = scipy_stats.binom.interval(1 - 1e-6, self.REPS, float(power))
        assert lo <= count <= hi, (test, count, float(power))

    @pytest.mark.parametrize("index", range(len(TESTS)), ids=[m for m, _ in TESTS])
    def test_power_curve(self, power_curve_rates, powers, index):
        self.assert_within_exact_power(power_curve_rates, powers, index)

    @pytest.mark.parametrize("index", range(len(TESTS)), ids=[m for m, _ in TESTS])
    def test_subsample_study_with_replacement(self, subsample_study_rates, powers, index):
        self.assert_within_exact_power(subsample_study_rates, powers, index)


class TestWorkerCount:
    def test_clamped_to_cores_and_tasks(self, monkeypatch):
        monkeypatch.setattr("usptest.simulate.os.cpu_count", lambda: 4)
        assert _worker_count(2, 100) == 2
        assert _worker_count(10**9, 100) == 4
        assert _worker_count(8, 3) == 3
        assert _worker_count(0, 100) == 1
        assert _worker_count(-5, 100) == 1
        monkeypatch.setattr("usptest.simulate.os.cpu_count", lambda: None)
        assert _worker_count(8, 100) == 1

    @pytest.mark.parametrize("threads, message", [
        ("2", "threads must be an integer, got '2'"),
        (2.0, "threads must be an integer, got 2.0"),
        (0, "threads must be >= 1, got 0"),
        (-5, "threads must be >= 1, got -5"),
    ])
    def test_library_checks_threads(self, threads, message):
        # as --threads does at the command line, before any table is drawn
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        with pytest.raises(DomainError, match=re.escape(message)):
            power_curve(fam, [0.0], n=20, reps=2, tests=PERM_TESTS, threads=threads)
        with pytest.raises(DomainError, match=re.escape(message)):
            subsample_study(MARITAL, m=50, reps=2, tests=PERM_TESTS, threads=threads)
        with pytest.raises(DomainError, match=re.escape(message)):
            dhat_samples(fam, n=20, epsilon=0.0, reps=2, threads=threads)


class TestStudyWorkers:
    # The benchmark's power call: sparse 5x8, n = 100, B = 99, two epsilons.
    TESTS = PERM_TESTS + [("pearson", "classic"), ("g", "classic")]

    @staticmethod
    def tasks(reps, tests, I=5, J=8, B=99):
        # laid out as power_curve lays out its blocks
        source = (np.full((I, J), 1.0 / (I * J)), 100, True)
        cfg = PermutationConfig(B=B)
        return [
            (source, size, tests, cfg, (e, k))
            for e in range(2)
            for k, size in enumerate(_block_sizes(reps))
        ]

    def test_pool_only_where_the_draws_pay(self, monkeypatch):
        # (workers, processes): processes from _POOL_MIN_CELLS cells per
        # worker, threads from _THREAD_MIN_CELLS, else the calling thread
        monkeypatch.setattr("usptest.simulate.os.cpu_count", lambda: 4)
        # 2 x 12 tables x 99 permuted tables x 40 cells: 95 040 cells, serial
        assert 2 * 12 * 99 * 40 < 2 * _THREAD_MIN_CELLS
        assert _study_workers(self.tasks(12, self.TESTS), 2) == (1, False)
        # 2 x 20 x 99 x 40: 158 400 cells over 2 blocks, two threads
        assert 2 * _THREAD_MIN_CELLS <= 2 * 20 * 99 * 40 < _POOL_MIN_CELLS
        assert _study_workers(self.tasks(20, self.TESTS), 2) == (2, False)
        assert _study_workers(self.tasks(20, self.TESTS), 8) == (2, False)
        assert _study_workers(self.tasks(20, self.TESTS), 1) == (1, False)
        # 128 replicates: 1 013 760 cells over 4 blocks, two processes
        assert _study_workers(self.tasks(128, self.TESTS), 2) == (2, True)
        assert _study_workers(self.tasks(128, self.TESTS), 1) == (1, False)
        # more threads: one process per _POOL_MIN_CELLS cells, at most one per
        # block and per core
        assert _study_workers(self.tasks(128, self.TESTS), 8) == (2, True)
        assert _study_workers(self.tasks(256, self.TESTS), 8) == (4, True)
        assert _study_workers(self.tasks(64, self.TESTS, I=10, J=12), 8) == (2, True)
        # dense 6x8, where stopping halves a null block: 912 384 cells are
        # too few for two processes, so they share out over a thread per block
        assert _study_workers(self.tasks(96, self.TESTS, I=6, J=8), 8) == (4, False)
        assert _study_workers(self.tasks(128, self.TESTS, I=6, J=8), 8) == (2, True)
        # the cells count, not the hypergeometric draws: a 2x2 table makes one
        # draw but costs about as much per cell as a larger one, so 128
        # replicates at B = 999 (1 022 976 cells) share out over two processes
        assert _study_workers(self.tasks(128, self.TESTS, I=2, J=2), 8) == (1, False)
        assert _study_workers(self.tasks(128, self.TESTS, I=2, J=2, B=999), 8) == (2, True)

    # the study calls of bench/workloads.py and its --threads gate
    BENCH_CALLS = [
        ["power", "--family", family, "--n", "100", "--eps-grid", grid, "--reps", "20",
         "--B", "99", "--tests", "usp,pearson-perm,g-perm,pearson-classic,g-classic"]
        for family, grid in (("sparse", "0:0.06:2"), ("dense", "0:0.01:2"))
    ] + [
        ["subsample", "--dataset", dataset, "--m", m, *replace, "--reps", "4", "--B", "999",
         "--tests", "usp,pearson-perm,g-perm"]
        for dataset, m, replace in (("eyecolour", "84", []), ("marital", "150", ["--no-replace"]))
    ] + [
        ["power", "--family", "sparse", "--n", "100", "--eps-grid", "0:0.06:2", "--reps", "12",
         "--B", "99", "--tests", "usp,pearson-perm,g-perm"]
    ]

    def test_benchmark_studies_pick_their_pool(self, pool_spy, capsys):
        # At the real thresholds, on two cores: each power call, 2 blocks of
        # 158 400 or 190 080 cells, shares them over two threads; the one-block
        # subsample calls and the 12-replicate gate (95 040 cells) run in the
        # calling thread.  The bytes are those of --threads 1.
        pools, digests = [], []
        for argv in self.BENCH_CALLS:
            for threads in ("1", "2"):
                assert main(argv + ["--seed", "1", "--threads", threads]) == 0, argv
                digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
                pools.append(pool_spy[:])
                pool_spy.clear()
        assert pools == [[], [("thread", 2)]] * 2 + [[], []] * 3
        assert digests[::2] == digests[1::2]

    def test_classic_tests_draw_nothing(self, monkeypatch):
        monkeypatch.setattr("usptest.simulate.os.cpu_count", lambda: 4)
        assert _study_workers(self.tasks(1000, [("g", "classic")]), 4) == (1, False)


class TestClassicBlock:
    @pytest.mark.parametrize("method", ["pearson", "g"])
    def test_counts_match_per_table_run_test(self, method):
        # sparse tables: many have a zero row or column, whose classic
        # statistic is undefined
        gen = np.random.default_rng(31)
        for shape, total in (((2, 2), 6), ((3, 4), 12), ((5, 8), 40)):
            for alpha in (0.05, 0.3):
                cfg = PermutationConfig(B=19, alpha=alpha)
                probs = gen.dirichlet(np.full(shape[0] * shape[1], 0.5)).reshape(shape)
                tables = _sample_tables(probs, total, True, 50, gen)
                want = [0, 0]
                for counts in tables:
                    try:
                        want[0] += run_test(validate_table(counts), method, "classic", cfg).reject
                    except UndefinedStatistic:
                        want[1] += 1
                assert 0 < want[1] < 50
                _, p = _classic_scores(tables, total, method)
                assert (np.count_nonzero(p <= alpha), np.count_nonzero(np.isnan(p))) == tuple(want)

    def test_every_table_undefined(self):
        tables = np.zeros((4, 3, 3), dtype=np.int64)
        tables[:, 0, 0] = 5
        for method in ("pearson", "g"):
            stats_, p = _classic_scores(tables, 5, method)
            assert np.isnan(stats_).all() and np.isnan(p).all()

    def test_single_row_rejected_before_any_p_value(self, monkeypatch):
        def no_call(*args):
            raise AssertionError("chi2_sf called")

        monkeypatch.setattr("usptest.permutation.chi2_sf", no_call)
        tables = np.array([[[4, 5, 6]], [[0, 9, 6]]])
        with pytest.raises(DomainError, match="at least a 2x2 table"):
            _classic_scores(tables, 15, "pearson")

    @pytest.mark.parametrize("method", ["pearson", "g"])
    def test_block_statistics_agree_with_scipy(self, method):
        lambda_ = "log-likelihood" if method == "g" else None
        value = {"pearson": stats._pearson_value, "g": stats._g_value}[method]
        gen = np.random.default_rng(32)
        for shape, total in (((2, 2), 30), ((4, 5), 150), ((5, 8), 100)):
            probs = gen.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
            tables = _sample_tables(probs, total, True, 40, gen)
            rows_ok = (tables.sum(axis=2) > 0).all(axis=1)
            tables = tables[rows_ok & (tables.sum(axis=1) > 0).all(axis=1)]
            got = value(tables, total)
            assert got.shape == (len(tables),) and len(tables) > 20
            for counts, x in zip(tables, got):
                want = scipy_stats.chi2_contingency(counts, correction=False, lambda_=lambda_)[0]
                assert x == pytest.approx(want, rel=1e-12)
                assert x == value(counts, total)


class TestCsvEmission:
    def test_power_csv_schema(self):
        fam = AlternativeFamily(kind="dense", I=6, J=8)
        cfg = PermutationConfig(B=19, alpha=0.1, seed=0)
        pts = power_curve(fam, [0.0, 0.01], n=20, reps=5, tests=PERM_TESTS, config=cfg)
        text = power_curve_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0] == POWER_CSV_HEADER == "epsilon,n,reps,method,mode,rejection_rate,std_err"
        assert len(lines) == 1 + 2 * len(PERM_TESTS)
        eps, n, reps, method, mode, rate, se = lines[1].split(",")
        assert float(eps) == 0.0 and int(n) == 20 and int(reps) == 5
        assert method == "usp" and mode == "permutation"
        assert 0.0 <= float(rate) <= 1.0 and float(se) >= 0.0
        assert text.endswith("\n")

    def test_dhat_csv_schema(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        values = dhat_samples(fam, n=20, epsilon=0.05, reps=4, seed=0)
        lines = dhat_samples_csv(0.05, 20, values).strip().split("\n")
        assert lines[0] == DHAT_CSV_HEADER == "epsilon,n,rep,dhat"
        assert len(lines) == 5
        assert [int(l.split(",")[2]) for l in lines[1:]] == [0, 1, 2, 3]
        # full float round trip
        assert [float(l.split(",")[3]) for l in lines[1:]] == list(values)

    def test_subsample_csv_schema(self):
        cfg = PermutationConfig(B=19, alpha=0.1, seed=0)
        study = subsample_study(MARITAL, m=50, reps=6, tests=PERM_TESTS, config=cfg)
        lines = subsample_study_csv(study).strip().split("\n")
        assert lines[0] == SUBSAMPLE_CSV_HEADER == "m,reps,method,mode,rejection_rate,std_err"
        assert len(lines) == 4
        for line, (method, mode) in zip(lines[1:], PERM_TESTS):
            m, reps, got_method, got_mode, rate, se = line.split(",")
            assert (int(m), int(reps), got_method, got_mode) == (50, 6, method, mode)

    def test_repeat_emission_is_byte_identical(self):
        fam = AlternativeFamily(kind="sparse", I=5, J=8)
        cfg = PermutationConfig(B=19, alpha=0.1, seed=11)
        a = power_curve_csv(
            power_curve(fam, [0.0], n=30, reps=8, tests=[("g", "permutation")], config=cfg)
        )
        b = power_curve_csv(
            power_curve(fam, [0.0], n=30, reps=8, tests=[("g", "permutation")], config=cfg)
        )
        assert a == b
