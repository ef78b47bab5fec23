"""Tests for permuted-table generation and the permutation test protocol."""

import hashlib
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracles import (
    g_exact_key,
    pearson_exact,
    permuted_table_by_shuffle,
    two_row_law,
    two_row_tail,
    usp_exact,
)
from usptest import get_dataset, permutation, stats
from usptest.errors import DomainError, InvalidMode, UndefinedStatistic
from usptest.numerics import RandomStream, chi2_sf
from usptest.permutation import (
    PermutationConfig,
    permutation_pvalue,
    permuted_tables,
    run_test,
)
from usptest.stats import dhat_statistic, usp_statistic
from usptest.table import validate_table

MARITAL = validate_table(
    [
        [18, 36, 21, 9, 6],
        [12, 36, 45, 36, 21],
        [6, 9, 9, 3, 3],
        [3, 9, 9, 6, 3],
    ]
)


class TestPermutedTable:
    def test_margins_preserved(self, monkeypatch):
        # a 7-table cap on each block makes 50 tables span eight blocks
        monkeypatch.setattr(permutation, "_BLOCK_CELLS", 7 * MARITAL.I * MARITAL.J)
        tables = permuted_tables(MARITAL, 50, RandomStream(0))
        assert tables.shape == (50, 4, 5) and tables.dtype == np.int64
        np.testing.assert_array_equal(tables.sum(axis=2), np.tile(MARITAL.row_margins, (50, 1)))
        np.testing.assert_array_equal(tables.sum(axis=1), np.tile(MARITAL.col_margins, (50, 1)))
        assert np.all(tables >= 0)
        assert len({t.tobytes() for t in tables}) > 40  # blocks do not repeat draws

    def test_shuffle_side_margins_preserved(self, monkeypatch):
        # 100 observations over 28 free cells are shuffled, 100 labels a
        # table; a 7-table cap on each block makes 50 tables span eight blocks
        counts = np.random.default_rng(6).multinomial(100, np.full(40, 1 / 40))
        t = validate_table(counts.reshape(5, 8))
        monkeypatch.setattr(permutation, "_BLOCK_CELLS", 7 * 100)
        monkeypatch.setattr(permutation, "_draw", None)
        tables = permuted_tables(t, 50, RandomStream(0))
        assert tables.shape == (50, 5, 8) and tables.dtype == np.int64
        np.testing.assert_array_equal(tables.sum(axis=2), np.tile(t.row_margins, (50, 1)))
        np.testing.assert_array_equal(tables.sum(axis=1), np.tile(t.col_margins, (50, 1)))
        assert np.all(tables >= 0)
        assert len({t.tobytes() for t in tables}) == 50

    def test_single_row_is_fixed_point(self):
        t = validate_table([[3, 1, 4]])
        tables = permuted_tables(t, 10, RandomStream(1))
        np.testing.assert_array_equal(tables, np.tile(t.counts, (10, 1, 1)))

    def test_two_by_two_unit_margins(self):
        # Margins (1,1)/(1,1) admit exactly two tables, each with mass 1/2.
        t = validate_table([[1, 0], [0, 1]])
        reps = 20_000
        diag = permuted_tables(t, reps, RandomStream(2))[:, 0, 0].sum()
        se = np.sqrt(0.25 / reps)
        assert abs(diag / reps - 0.5) <= 3 * se

    def test_diag_two_balls_frequency(self):
        # For [[2,0],[0,2]] the permuted table is [[1,1],[1,1]] with
        # hypergeometric probability 4/6 = 2/3.
        t = validate_table([[2, 0], [0, 2]])
        reps = 100_000
        hits = np.count_nonzero(permuted_tables(t, reps, RandomStream(3))[:, 0, 0] == 1)
        se = np.sqrt((2 / 3) * (1 / 3) / reps)
        assert abs(hits / reps - 2 / 3) <= 3 * se

    def test_matches_shuffle_distribution(self):
        # The engine (here its batched shuffle: 4 observations, 1 free cell)
        # and the one-table label-shuffle reference must produce the same
        # distribution over tables; compare cell histograms on a 2x2 where
        # o_11 determines the table, P(o_11 = k) = (1, 4, 1)/6.
        t = validate_table([[1, 1], [1, 1]])
        reps = 30_000
        base = RandomStream(4)
        counts = {
            "batch": np.bincount(permuted_tables(t, reps, base.child(0))[:, 0, 0], minlength=3),
            "shuffle": np.zeros(3),
        }
        for i in range(reps):
            counts["shuffle"][permuted_table_by_shuffle(t, base.child(1, i)).counts[0, 0]] += 1
        want = np.array([1, 4, 1]) / 6
        for kind in counts:
            freq = counts[kind] / reps
            se = np.sqrt(want * (1 - want) / reps)
            assert np.all(np.abs(freq - want) <= 4 * se), kind

    def test_reproducible(self):
        a = permuted_tables(MARITAL, 20, RandomStream(5, (7,)))
        b = permuted_tables(MARITAL, 20, RandomStream(5, (7,)))
        np.testing.assert_array_equal(a, b)

    def test_bad_B_rejected(self):
        with pytest.raises(DomainError, match="B must be >= 1, got 0"):
            permuted_tables(MARITAL, 0, RandomStream(0))
        with pytest.raises(DomainError, match="B must be an integer, got 10.0"):
            permuted_tables(MARITAL, 10.0, RandomStream(0))

    def test_first_chunk_does_not_wait_on_B(self):
        # chunks are drawn lazily: at B = 10^10 the first chunk costs what one
        # chunk of 2^18 cells costs, with no list of the chunks to come
        rows, cols = MARITAL.row_margins[None], MARITAL.col_margins[None]
        chunks = permutation._permuted(rows, cols, 10**10, np.random.default_rng(0))
        tracemalloc.start()
        try:
            lo, hi, tables = next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lo, hi) == (0, 1)
        assert tables.shape == (1, permutation._BLOCK_CELLS // 20, 20)
        assert peak < 16 * 2**20


class TestDrawsPinned:
    # sha256 of permuted_tables(table, B, RandomStream(seed)).tobytes(),
    # recorded before a lone source drew its cell (0, 0) through numpy's
    # scalar path; all of these tables go to Patefield's draws
    PINS = {
        "2x2": ([[12, 7], [5, 16]], 999, 11,
                "ef12438a36c24cabb0a3376822819ddf6861f9283ad37d43124ac2e4d2b5adaf"),
        "eyecolour": ("eyecolour", 999, 12,
                      "5631310989425d4eca09edbc916f958aef0750e3cc034dc2d9f54e03a5f2166a"),
        "marital": ("marital", 999, 13,
                    "5ae5378ed20cc00db34d49f55c4bce082b4e3bbce36220107b43cf93b2e7a3ab"),
        "10x12": ((np.arange(120).reshape(10, 12) % 7 + 3).tolist(), 199, 14,
                  "a194f914adcdcb76e8d0c683d27aad0be7fa9c9765ad63cfa40aca6772a3d61e"),
        "zero-first-column": ([[0, 3, 4], [0, 5, 6]], 999, 15,
                              "38fec26b78ace95ec66b4bdad57046646d8bd6b4d2132a62e4eb1fd5230c4458"),
        # 99 tables of 3 600 cells span two chunks of at most 72
        "60x60": ([[5] * 60] * 60, 99, 16,
                  "3117c571fbb5e66c673ea7d581353bd8bc98d0c1f6df9ac45ee8d69f3dc1fccf"),
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_tables_did_not_move(self, name):
        raw, B, seed, digest = self.PINS[name]
        table = get_dataset(raw).table if isinstance(raw, str) else validate_table(raw)
        assert not permutation._shuffles(table.n, table.I, table.J)
        if name == "60x60":
            assert permutation._BLOCK_CELLS // (60 * 60) < B
        tables = permuted_tables(table, B, RandomStream(seed))
        assert hashlib.sha256(tables.tobytes()).hexdigest() == digest

    class SpyGenerator:
        # records the arguments of every hypergeometric call
        def __init__(self, seed):
            self.gen = np.random.default_rng(seed)
            self.calls = []

        def hypergeometric(self, ngood, nbad, nsample, size=None):
            self.calls.append((ngood, nbad, nsample, size))
            return self.gen.hypergeometric(ngood, nbad, nsample, size=size)

    def test_lone_source_draws_its_first_cell_as_scalars(self):
        rows, cols = MARITAL.row_margins[None], MARITAL.col_margins[None]
        spy = self.SpyGenerator(0)
        list(permutation._permuted(rows, cols, 50, spy))
        assert len(spy.calls) == 12
        first, rest = spy.calls[0], spy.calls[1:]
        assert [type(v) for v in first] == [int, int, int, int]
        assert first == (39, 300 - 39, 90, 50)
        assert all(isinstance(c[0], np.ndarray) and c[3] is None for c in rest)

    def test_several_sources_draw_arrays(self):
        rows = np.stack([MARITAL.row_margins] * 3)
        cols = np.stack([MARITAL.col_margins] * 3)
        spy = self.SpyGenerator(0)
        list(permutation._permuted(rows, cols, 50, spy))
        assert len(spy.calls) == 12
        assert all(isinstance(c[0], np.ndarray) and c[3] is None for c in spy.calls)
        assert spy.calls[0][0].shape == (150,)


class TestPermutationConfig:
    def test_defaults(self):
        c = PermutationConfig()
        assert c.B == 999 and c.alpha == 0.05 and c.seed == 0
        assert c.tie_policy == "randomized"

    def test_validation(self):
        with pytest.raises(DomainError):
            PermutationConfig(B=0)
        with pytest.raises(DomainError, match="B must be an integer, got 10.0"):
            PermutationConfig(B=10.0)
        with pytest.raises(DomainError):
            PermutationConfig(alpha=0.0)
        with pytest.raises(DomainError):
            PermutationConfig(alpha=1.5)
        for alpha in ("0.05", None, [0.05]):
            with pytest.raises(DomainError, match=re.escape(f"alpha must be a number, got {alpha!r}")):
                PermutationConfig(alpha=alpha)
        with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 1\), got nan$"):
            PermutationConfig(alpha=float("nan"))
        with pytest.raises(DomainError):
            PermutationConfig(tie_policy="sometimes")
        for seed in (1.5, "x", None, -1, 2**64):
            with pytest.raises(DomainError, match=re.escape(f"got {seed!r}")):
                PermutationConfig(seed=seed)

    def test_warns_when_rejection_impossible(self):
        with pytest.warns(UserWarning, match="never reject") as record:
            PermutationConfig(B=9, alpha=0.05)
        # the warning points at the line that builds the config, not at the
        # __init__ that dataclass generates
        assert record[0].filename == __file__


class TestPermutationPvalue:
    def test_granularity(self):
        cfg = PermutationConfig(B=19, alpha=0.2, seed=0)
        _, p = permutation_pvalue(MARITAL, "usp", cfg, RandomStream(0))
        assert round(p * 20) == pytest.approx(p * 20)
        assert 1 / 20 <= p <= 1.0

    def test_full_tie_p_uniform(self):
        # Every permutation of a single-row table is the table itself, so all
        # B statistics tie and the randomized p-value must be uniform on
        # {0.1, ..., 1.0}; chi-squared GOF check.
        cfg = PermutationConfig(B=9, alpha=0.9, seed=0)
        t = validate_table([[2, 2, 3]])
        runs = 10_000
        bins = np.zeros(10)
        for i in range(runs):
            _, p = permutation_pvalue(t, "usp", cfg, RandomStream(17, (i,)))
            bins[int(round(p * 10)) - 1] += 1
        expected = runs / 10
        stat = float(((bins - expected) ** 2 / expected).sum())
        assert chi2_sf(stat, 9) > 0.001

    def test_conservative_vs_randomized(self):
        cons = PermutationConfig(B=9, alpha=0.9, seed=0, tie_policy="conservative")
        t = validate_table([[2, 2, 3]])
        for method in ("usp", "pearson", "g"):
            _, p = permutation_pvalue(t, method, cons, RandomStream(0))
            assert p == 1.0  # all B ties count as exceedances

    def test_deterministic_given_stream(self):
        cfg = PermutationConfig(B=99, seed=3)
        r1 = permutation_pvalue(MARITAL, "usp", cfg, RandomStream(3))
        r2 = permutation_pvalue(MARITAL, "usp", cfg, RandomStream(3))
        assert r1 == r2

    def test_needs_stream(self):
        cfg = PermutationConfig(B=9, alpha=0.9)
        with pytest.raises(TypeError):
            permutation_pvalue(MARITAL, "usp", cfg, np.random.default_rng(0))

    def test_usp_and_dhat_share_rank(self):
        # The two statistics differ by a margins-only offset, so on shared
        # permuted tables they count the same exceedances and ties.
        rng = np.random.default_rng(8)
        for trial in range(10):
            counts = rng.integers(0, 7, size=(3, 4))
            counts[0, 0] += 4
            t = validate_table(counts)
            shared = [validate_table(c) for c in permuted_tables(t, 200, RandomStream(trial))]
            u0, d0 = float(usp_statistic(t)), float(dhat_statistic(t))
            u = np.array([float(usp_statistic(c)) for c in shared])
            d = np.array([float(dhat_statistic(c)) for c in shared])
            assert int((u > u0).sum()) == int((d > d0).sum())
            assert int((u == u0).sum()) == int((d == d0).sum())


class TestExactTies:
    # A table with the marital margins; RandomStream(0) draws it once among
    # 999 permuted tables, together with one other table of exactly equal
    # U-hat that the textbook float formula rounds to a different value.
    DATA = validate_table(
        [[10, 30, 25, 17, 8], [25, 43, 42, 22, 18], [2, 10, 10, 5, 3], [2, 7, 7, 10, 4]]
    )

    @staticmethod
    def _float_usp(c):
        n = c.sum()
        e = np.outer(c.sum(axis=1), c.sum(axis=0)) / float(n)
        d = c - e
        return float(np.sum(d * d)) / (n * (n - 3.0)) - 4.0 * float(np.sum(c * e)) / (
            n * (n - 2.0) * (n - 3.0)
        )

    def test_usp_counts_true_ties_exactly(self):
        B = 999
        tables = permuted_tables(self.DATA, B, RandomStream(0))
        u0 = usp_exact(self.DATA.counts)
        exact = [usp_exact(c) for c in tables]
        tied = [c for c, u in zip(tables, exact) if u == u0]
        assert len(tied) >= 2
        assert len({self._float_usp(c) for c in tied}) > 1  # floats split the class
        gt = sum(u > u0 for u in exact)
        cons = PermutationConfig(B=B, seed=0, tie_policy="conservative")
        _, p = permutation_pvalue(self.DATA, "usp", cons, RandomStream(0))
        assert p == (1 + gt + len(tied)) / (B + 1)
        _, p = permutation_pvalue(self.DATA, "usp", PermutationConfig(B=B), RandomStream(0))
        assert (1 + gt) / (B + 1) <= p <= (1 + gt + len(tied)) / (B + 1)

    def test_python_int_key_ranks_like_int64_key(self, monkeypatch):
        cfg = PermutationConfig(B=199, seed=4)
        want = permutation_pvalue(self.DATA, "usp", cfg, RandomStream(4))
        monkeypatch.setattr(stats, "_usp_key_dtype", lambda n: object)
        assert permutation_pvalue(self.DATA, "usp", cfg, RandomStream(4)) == want

    def test_usp_key_exact_past_int64(self):
        # n = 2 000 008: the key's terms exceed int64, so they are Python ints
        t = validate_table([[10**6, 3], [5, 10**6]])
        r = run_test(t, "usp", "permutation", PermutationConfig(B=19, alpha=0.1, seed=1))
        assert r.p_value == 1 / 20
        assert r.statistic == float(usp_exact(t.counts))


class TestExactTail:
    # B -> infinity oracle: on a 2x2 table the permuted tables are indexed by
    # one hypergeometric cell, so P(T >= t0) is an exact finite sum.  On this
    # table pearson's tail (0.088) differs from usp's and g's (0.194).
    DATA = validate_table([[1, 3], [6, 1]])
    EXACT = {"usp": usp_exact, "pearson": pearson_exact, "g": g_exact_key}

    def test_conservative_p_matches_exact_tail(self):
        B = 20_000
        for seed, (method, statistic) in enumerate(self.EXACT.items()):
            tail = float(two_row_tail(self.DATA.counts, statistic))
            cfg = PermutationConfig(B=B, seed=seed, tie_policy="conservative")
            _, p = permutation_pvalue(self.DATA, method, cfg, RandomStream(seed))
            # (B + 1) p - 1 tables of B reach t0: binomial(B, tail)
            hits = round(p * (B + 1)) - 1
            assert abs(hits - B * tail) <= 4.5 * np.sqrt(B * tail * (1 - tail)), method

    def test_statistics_disagree_on_this_table(self):
        tails = {m: two_row_tail(self.DATA.counts, f) for m, f in self.EXACT.items()}
        assert tails["usp"] == tails["g"] != tails["pearson"]

    # one table on each side of the sampler rule: 12 observations over 7
    # free cells are shuffled, 200 over 2 go to Patefield's draws
    SIDES = {
        "shuffle": validate_table([[2, 0, 2, 0, 1, 0, 1, 0], [1, 2, 0, 1, 0, 1, 0, 1]]),
        "patefield": validate_table([[40, 30, 35], [25, 40, 30]]),
    }

    @pytest.mark.parametrize("side", ["shuffle", "patefield"])
    def test_each_sampler_matches_the_exact_law(self, monkeypatch, side):
        def unused(*args):
            raise AssertionError("the other sampler ran")

        monkeypatch.setattr(permutation, "_draw" if side == "shuffle" else "_shuffle", unused)
        data, B = self.SIDES[side], 20_000
        for seed, (method, statistic) in enumerate(self.EXACT.items()):
            tail = float(two_row_tail(data.counts, statistic))
            cfg = PermutationConfig(B=B, seed=seed, tie_policy="conservative")
            _, p = permutation_pvalue(data, method, cfg, RandomStream(seed))
            hits = round(p * (B + 1)) - 1
            assert abs(hits - B * tail) <= 4 * np.sqrt(B * tail * (1 - tail)), (method, tail)
        # and the whole law: a chi-squared goodness of fit over the tables,
        # with those of expected count below 5 pooled into one class
        law = two_row_law(data.counts)
        seen = Counter(tuple(t[0]) for t in permuted_tables(data, B, RandomStream(9)).tolist())
        want = np.array([float(w) * B for _, w in law])
        got = np.array([seen.pop(tuple(t[0]), 0) for t, _ in law], dtype=float)
        assert not seen  # every drawn table has the margins
        small = want < 5
        if small.any():
            want = np.append(want[~small], want[small].sum())
            got = np.append(got[~small], got[small].sum())
        stat = float(((got - want) ** 2 / want).sum())
        assert chi2_sf(stat, len(want) - 1) > 1e-4, (stat, len(want))


class TestHypergeometricLimit:
    def test_large_margin_rejected_up_front(self):
        t = validate_table([[1_000_000_000, 1], [1, 1]])
        with pytest.raises(DomainError, match="below 10\\^9"):
            permuted_tables(t, 5, RandomStream(0))
        with pytest.raises(DomainError, match="below 10\\^9"):
            run_test(t, "usp", "permutation", PermutationConfig(B=19, alpha=0.1))

    def test_columns_after_the_first_count_together(self):
        # every margin is below 10^9, but the first row's first draw sees the
        # other columns' 1.2 * 10^9 observations as its nbad
        t = validate_table([[1, 600_000_000, 600_000_000], [1, 1, 1]])
        with pytest.raises(DomainError, match="this table has 1200000002"):
            permuted_tables(t, 5, RandomStream(0))

    def test_just_below_the_limit_draws(self):
        t = validate_table([[999_999_998, 1], [0, 1]])
        tables = permuted_tables(t, 5, RandomStream(0))
        np.testing.assert_array_equal(tables.sum(axis=1), np.tile(t.col_margins, (5, 1)))


class TestRunTestClassic:
    def test_marital_pearson(self):
        r = run_test(MARITAL, "pearson", "classic")
        assert r.statistic == pytest.approx(23.6, abs=0.05)
        assert r.p_value == pytest.approx(0.0235, abs=0.0005)
        assert r.reject  # at the default 5% level
        assert not run_test(MARITAL, "pearson", "classic", PermutationConfig(alpha=0.01)).reject
        assert r.df == 12
        assert r.B is None

    def test_marital_g(self):
        r = run_test(MARITAL, "g", "classic")
        assert r.p_value == pytest.approx(0.0205, abs=0.0005)

    def test_usp_classic_invalid(self):
        with pytest.raises(InvalidMode):
            run_test(MARITAL, "usp", "classic")

    def test_unknown_method_and_mode(self):
        with pytest.raises(InvalidMode):
            run_test(MARITAL, "fisher", "classic")
        with pytest.raises(InvalidMode):
            run_test(MARITAL, "usp", "bayes")

    def test_one_by_k_rejected(self):
        # the shape is checked before the margins: a zero column in a 1xJ
        # table gives the 2x2 error too
        for counts in ([[4, 5, 6]], [[4, 0, 6]]):
            for method in ("pearson", "g"):
                with pytest.raises(DomainError, match="at least a 2x2 table"):
                    run_test(validate_table(counts), method, "classic")

    def test_tail_does_not_underflow(self):
        # scipy chi2_contingency(correction=False) on this table gives
        # p = 1.7958e-219 (pearson) and 1.9985e-303 (g)
        t = validate_table([[500, 0], [0, 500]])
        assert run_test(t, "pearson", "classic").p_value == pytest.approx(
            1.795832784800736e-219, rel=1e-12
        )
        assert run_test(t, "g", "classic").p_value == pytest.approx(
            1.9984990900553828e-303, rel=1e-12
        )

    def test_many_degrees_of_freedom_against_scipy(self):
        # 399^2 = 159 201 degrees of freedom: the chi-squared tail needs
        # thousands of terms, where a fixed 1000-term cap read 0.545280
        # for pearson against scipy's 0.545151
        from scipy.stats import chi2_contingency

        gen = np.random.default_rng(400)
        counts = gen.multinomial(800_000, np.full(400 * 400, 1 / 400**2))
        t = validate_table(counts.reshape(400, 400))
        for method, lambda_ in (("pearson", None), ("g", "log-likelihood")):
            want = chi2_contingency(t.counts, correction=False, lambda_=lambda_)
            r = run_test(t, method, "classic")
            assert r.df == want.dof
            assert r.statistic == pytest.approx(want.statistic, rel=1e-12)
            assert r.p_value == pytest.approx(want.pvalue, rel=1e-9), method

    def test_zero_margin_propagates(self):
        with pytest.raises(UndefinedStatistic):
            run_test(validate_table([[5, 5], [0, 0]]), "pearson", "classic")


class TestRunTestPermutation:
    def test_result_invariants(self):
        from usptest.permutation import TestResult as result_type

        cfg = PermutationConfig(B=99, alpha=0.05, seed=11)
        r = run_test(MARITAL, "usp", "permutation", cfg)
        assert isinstance(r, result_type)
        assert r.method == "usp" and r.mode == "permutation"
        assert r.B == 99 and r.df is None and r.seed == 11
        assert r.reject == (r.p_value <= r.alpha)
        assert r.statistic == pytest.approx(float(usp_statistic(MARITAL)))
        assert round(r.p_value * 100) == pytest.approx(r.p_value * 100)

    def test_same_seed_same_result(self):
        cfg = PermutationConfig(B=199, seed=5)
        assert run_test(MARITAL, "g", "permutation", cfg) == run_test(
            MARITAL, "g", "permutation", cfg
        )

    def test_different_seeds_vary(self):
        ps = {
            run_test(MARITAL, "usp", "permutation", PermutationConfig(B=99, seed=s)).p_value
            for s in range(8)
        }
        assert len(ps) > 1

    def test_marital_usp_strongly_rejects(self):
        r = run_test(MARITAL, "usp", "permutation", PermutationConfig(B=999, seed=0))
        assert r.p_value <= 0.02
        assert r.reject

    def test_permutation_mode_tolerates_zero_margins(self):
        # A zero column contributes nothing; the permutation test conditions
        # on the observed (nonempty) support, which permutation preserves.
        t = validate_table([[5, 3, 0], [2, 6, 0]])
        for method in ("usp", "pearson", "g"):
            r = run_test(t, method, "permutation", PermutationConfig(B=49, alpha=0.2))
            assert 0.0 < r.p_value <= 1.0

    def test_statistic_matches_public_function_when_defined(self):
        cfg = PermutationConfig(B=19, alpha=0.2, seed=2)
        from usptest.stats import g_statistic, pearson_statistic

        assert run_test(MARITAL, "pearson", "permutation", cfg).statistic == pytest.approx(
            float(pearson_statistic(MARITAL))
        )
        assert run_test(MARITAL, "g", "permutation", cfg).statistic == pytest.approx(
            float(g_statistic(MARITAL))
        )


class TestStopping:
    # A study block draws its permuted tables in the chunks of _stop_points
    # and drops a table once none of its permutation tests can reject.  The
    # fixed sampler gives each source a sequence of B tables drawn in
    # advance, so that every schedule scores a source on the same tables and
    # leaves the generator to the tie-breaks alone.
    TESTS = [("usp", "permutation"), ("pearson", "permutation"), ("g", "permutation")]
    N = 16

    @classmethod
    def tables(cls):
        # null and dependent 3x4 tables of 16 observations, rich in ties
        gen = np.random.default_rng(40)
        null = np.full((3, 4), 1 / 12)
        dependent = np.array([[4, 1, 1, 0], [1, 4, 1, 0], [0, 1, 4, 1]]) / 18
        return np.concatenate(
            [gen.multinomial(cls.N, p.ravel(), size=32).reshape(32, 3, 4) for p in (null, dependent)]
        )

    @staticmethod
    def fixed_sampler(monkeypatch, tables, B):
        # each chunk of b tables continues every live source's sequence where
        # the previous chunk of the run ended; returns the (sources, b) of
        # each chunk, sources as indices into tables, which the caller clears
        # between runs
        index = {}
        for s, counts in enumerate(tables):
            index[counts.sum(axis=1).tobytes(), counts.sum(axis=0).tobytes()] = s
        assert len(index) == len(tables)  # the margins name the source
        sequences = [
            permuted_tables(validate_table(counts), B, RandomStream(s))
            for s, counts in enumerate(tables)
        ]
        chunks = []

        def permuted(rows, cols, b, gen):
            lo = sum(size for _, size in chunks)
            sources = [index[r.tobytes(), c.tobytes()] for r, c in zip(rows, cols)]
            chunks.append((sources, b))
            drawn = [sequences[s][lo : lo + b] for s in sources]
            yield 0, len(rows), np.stack(drawn).reshape(len(rows), b, -1)

        monkeypatch.setattr(permutation, "_permuted", permuted)
        return chunks

    @pytest.mark.parametrize("B", [99, 100])
    @pytest.mark.parametrize("policy", ["randomized", "conservative"])
    def test_decisions_match_one_chunk_of_B(self, monkeypatch, policy, B):
        # alpha (B+1) is 5 at B = 99 and 5.05 at B = 100
        tables = self.tables()
        cfg = PermutationConfig(B=B, alpha=0.05, tie_policy=policy)
        chunks = self.fixed_sampler(monkeypatch, tables, B)
        decisions, drawn = [], []
        for points in (permutation._stop_points, lambda B, R, shuffle: [B]):
            monkeypatch.setattr(permutation, "_stop_points", points)
            chunks.clear()
            gen = np.random.default_rng(41)
            p = permutation._block_pvalues(tables, self.N, self.TESTS, cfg, gen, stop=True)
            decisions.append(p <= cfg.alpha)
            drawn.append(sum(len(sources) * b for sources, b in chunks))
        np.testing.assert_array_equal(decisions[0], decisions[1])
        # the schedule stopped tables early, and the tests still disagree
        assert drawn[0] < drawn[1] == len(tables) * B
        assert decisions[0].any(axis=1).all() and not decisions[0].all(axis=1).any()
        if policy == "conservative":
            chunks.clear()
            p = permutation._block_pvalues(tables, self.N, self.TESTS, cfg, gen, stop=False)
            np.testing.assert_array_equal(p <= cfg.alpha, decisions[0])

    @pytest.mark.parametrize("B", [99, 100])
    @pytest.mark.parametrize("policy", ["randomized", "conservative"])
    def test_stopped_tables_never_reject(self, monkeypatch, policy, B):
        tables = self.tables()
        cfg = PermutationConfig(B=B, alpha=0.05, tie_policy=policy)
        chunks = self.fixed_sampler(monkeypatch, tables, B)
        gen = np.random.default_rng(42)
        stopping = permutation._block_pvalues(tables, self.N, self.TESTS, cfg, gen, stop=True)
        # the stopped sources are those that drew fewer than B tables
        drawn = Counter()
        for sources, b in chunks:
            drawn.update(dict.fromkeys(sources, b))
        stopped = [s for s in range(len(tables)) if drawn[s] < B]
        assert 0 < len(stopped) < len(tables)
        chunks.clear()
        p = permutation._block_pvalues(tables, self.N, self.TESTS, cfg, gen)
        assert (p[:, stopped] > cfg.alpha).all()
        # a stopping run reports the lower bound (1 + G) / (B + 1) > alpha
        assert (stopping[:, stopped] > cfg.alpha).all()
