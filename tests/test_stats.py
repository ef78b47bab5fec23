"""Tests for the dependence measure and the table statistics."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as scipy_stats

from usptest.errors import DomainError, SampleTooSmall, UndefinedStatistic
from oracles import (
    SampleTooLargeForOracle,
    dependence_exact,
    dhat_bruteforce,
    dhat_exact,
    multinomial_expectation,
    usp_exact,
)
from usptest import stats
from usptest.simulate import sparse_family
from usptest.permutation import run_test
from usptest.table import JointDistribution, expected_counts, validate_table
from usptest.stats import (
    dependence_measure,
    dhat_statistic,
    g_statistic,
    pearson_statistic,
    usp_statistic,
)

MARITAL = validate_table(
    [
        [18, 36, 21, 9, 6],
        [12, 36, 45, 36, 21],
        [6, 9, 9, 3, 3],
        [3, 9, 9, 6, 3],
    ]
)


def random_table(rng, shape, n):
    probs = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
    flat = rng.multinomial(n, probs.ravel())
    return validate_table(flat.reshape(shape))


def table_to_pairs(table):
    pairs = []
    for (i, j), c in np.ndenumerate(table.counts):
        pairs.extend([(i, j)] * int(c))
    return pairs


class TestDependenceMeasure:
    def test_product_gives_zero(self):
        q = np.array([0.2, 0.8])
        r = np.array([0.1, 0.4, 0.5])
        assert dependence_measure(JointDistribution(np.outer(q, r))) <= 1e-30

    def test_diagonal_two_by_two(self):
        # p = diag(1/2, 1/2): every cell deviates from 1/4 by 1/4, so D = 1/4.
        d = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert dependence_measure(d) == pytest.approx(0.25, abs=1e-15)

    def test_matches_direct_formula_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(12)).reshape(3, 4)
            d = JointDistribution(probs)
            direct = float(
                ((probs - np.outer(probs.sum(1), probs.sum(0))) ** 2).sum()
            )
            assert dependence_measure(d) == pytest.approx(direct, abs=1e-15)


class TestPearsonStatistic:
    def test_marital_value(self):
        assert float(pearson_statistic(MARITAL)) == pytest.approx(23.6, abs=0.05)

    def test_uniform_table_is_zero(self):
        assert float(pearson_statistic(validate_table([[1, 1], [1, 1]]))) == 0.0

    def test_zero_margin_undefined(self):
        with pytest.raises(UndefinedStatistic):
            pearson_statistic(validate_table([[5, 5], [0, 0]]))
        with pytest.raises(UndefinedStatistic):
            pearson_statistic(validate_table([[5, 0], [5, 0]]))

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = random_table(rng, (3, 4), 60)
            if np.any(t.row_margins == 0) or np.any(t.col_margins == 0):
                continue
            want = scipy_stats.chi2_contingency(t.counts, correction=False)[0]
            assert float(pearson_statistic(t)) == pytest.approx(want, rel=1e-12)


class TestGStatistic:
    def test_uniform_table_is_zero(self):
        assert float(g_statistic(validate_table([[3, 3], [3, 3]]))) == 0.0

    def test_diagonal_closed_form(self):
        # diag(2, 2): each occupied cell has o = 2, e = 1, so G = 2*4*log 2.
        t = validate_table([[2, 0], [0, 2]])
        assert float(g_statistic(t)) == pytest.approx(8 * np.log(2), abs=1e-12)

    def test_zero_cells_contribute_nothing(self):
        t = validate_table([[2, 0], [1, 1]])
        o = np.array([[2.0, 0.0], [1.0, 1.0]])
        e = np.outer([2, 2], [3, 1]) / 4
        want = 2 * sum(
            o[i, j] * np.log(o[i, j] / e[i, j]) for i in range(2) for j in range(2) if o[i, j] > 0
        )
        assert float(g_statistic(t)) == pytest.approx(want, abs=1e-12)

    def test_zero_margin_undefined(self):
        with pytest.raises(UndefinedStatistic):
            g_statistic(validate_table([[5, 5], [0, 0]]))

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = random_table(rng, (2, 5), 80)
            if np.any(t.row_margins == 0) or np.any(t.col_margins == 0):
                continue
            want = scipy_stats.chi2_contingency(
                t.counts, correction=False, lambda_="log-likelihood"
            )[0]
            assert float(g_statistic(t)) == pytest.approx(want, rel=1e-10)


class TestMarginProductsPast2To63:
    # r_i c_j is about 2^124 here: an int64 margin product wraps (the expected
    # counts were [[0, -0.5], [-0.5, -1]] and X^2 divided by zero)
    COUNTS = [[2**61, 2**61], [2**61, 2**61 - 1]]
    TABLE = validate_table(COUNTS)

    def _exact(self):
        # expected counts and X^2 as exact fractions, and G from the series
        # log(1 + d) = d - d^2/2 + d^3/3, whose next term is below 2^-240 here
        rows = [sum(r) for r in self.COUNTS]
        cols = [sum(c) for c in zip(*self.COUNTS)]
        n = sum(rows)
        e = [[Fraction(r * c, n) for c in cols] for r in rows]
        cells = [(o, e[i][j]) for i, row in enumerate(self.COUNTS) for j, o in enumerate(row)]
        x2 = sum((o - ej) ** 2 / ej for o, ej in cells)
        g = 2 * sum(o * (d - d**2 / 2 + d**3 / 3) for o, ej in cells for d in [o / ej - 1])
        return e, float(x2), float(g)

    def test_expected_counts_are_the_exact_ones(self):
        e, _, _ = self._exact()
        got = expected_counts(self.TABLE)
        assert (got > 0).all()
        want = [float(x) for row in e for x in row]
        assert got.ravel().tolist() == pytest.approx(want, rel=1e-15)

    def test_statistics_match_the_exact_ones(self):
        # X^2 is 1.08e-19 exactly; each cell is a float to within 2^9, so the
        # float statistics resolve about 1e-13
        _, x2, g = self._exact()
        assert x2 == pytest.approx(1.08e-19, rel=0.01)
        assert pearson_statistic(self.TABLE) == pytest.approx(x2, abs=1e-12)
        assert g_statistic(self.TABLE) == pytest.approx(g, abs=1e-12)
        for method, want in (("pearson", x2), ("g", g)):
            r = run_test(self.TABLE, method, "classic")
            assert r.statistic == pytest.approx(want, abs=1e-12)
            assert r.p_value == pytest.approx(1.0, abs=1e-6) and not r.reject


class TestUspStatistic:
    def test_uniform_two_by_two(self):
        # n = 4, e = 1 everywhere: first sum is 0, second is 4, so
        # U-hat = -4 * 4 / (4 * 2 * 1) = -2.
        t = validate_table([[1, 1], [1, 1]])
        assert float(usp_statistic(t)) == pytest.approx(-2.0, abs=1e-13)

    def test_defined_on_zero_margins(self):
        t = validate_table([[5, 5], [0, 0]])
        assert np.isfinite(float(usp_statistic(t)))

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmall):
            usp_statistic(validate_table([[1, 1], [1, 0]]))

    def test_rounded_once_from_exact_value(self):
        # U-hat is the exact rational value rounded once, also for n where the
        # integer terms leave int64
        rng = np.random.default_rng(7)
        tables = [random_table(rng, (4, 5), 60) for _ in range(25)]
        tables.append(validate_table([[10**6, 3], [5, 10**6]]))
        for t in tables:
            assert float(usp_statistic(t)) == float(usp_exact(t.counts))

    def test_direct_formula_random(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = random_table(rng, (3, 3), 40)
            o = t.counts.astype(float)
            n = t.n
            e = np.outer(o.sum(1), o.sum(0)) / n
            want = ((o - e) ** 2).sum() / (n * (n - 3)) - 4 * (o * e).sum() / (
                n * (n - 2) * (n - 3)
            )
            assert float(usp_statistic(t)) == pytest.approx(want, rel=1e-12)


class TestDhatStatistic:
    def test_uniform_two_by_two(self):
        # Exact rational arithmetic gives -1/3 for the all-ones 2x2 table.
        t = validate_table([[1, 1], [1, 1]])
        assert float(dhat_statistic(t)) == pytest.approx(-1 / 3, abs=1e-14)

    def test_single_cell_is_zero(self):
        # One category on each axis: D = 0 and the estimator is exact.
        t = validate_table([[4]])
        assert float(dhat_statistic(t)) == pytest.approx(0.0, abs=1e-13)
        t = validate_table([[9]])
        assert float(dhat_statistic(t)) == pytest.approx(0.0, abs=1e-13)

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmall):
            dhat_statistic(validate_table([[3]]))

    def test_matches_bruteforce_kernel(self):
        rng = np.random.default_rng(7)
        for n in range(4, 11):
            for _ in range(4):
                t = random_table(rng, (2, 3), n)
                want = dhat_bruteforce(table_to_pairs(t))
                assert float(dhat_statistic(t)) == pytest.approx(want, abs=1e-12)

    def test_margin_terms_identity(self):
        # dhat minus usp depends on the table only through its margins.
        rng = np.random.default_rng(9)
        t = random_table(rng, (3, 3), 8)
        n = t.n
        sr = float((t.row_margins.astype(float) ** 2).sum())
        sc = float((t.col_margins.astype(float) ** 2).sum())
        margin_terms = (
            (sr + sc) / (n * (n - 1) * (n - 3))
            + (3 * n - 2) * sr * sc / (n**3 * (n - 1) * (n - 2) * (n - 3))
            - n / ((n - 1) * (n - 3))
        )
        assert float(dhat_statistic(t)) - float(usp_statistic(t)) == pytest.approx(
            margin_terms, rel=1e-12
        )


def sparse_law(I, J, epsilon):
    # sparse_family in exact arithmetic: the geometric base law, with epsilon
    # added to cells (1,1), (2,2) and taken from (1,2), (2,1)
    q = [Fraction(2**-i) / (1 - Fraction(2**-I)) for i in range(1, I + 1)]
    r = [Fraction(2**-j) / (1 - Fraction(2**-J)) for j in range(1, J + 1)]
    law = [[qi * rj for rj in r] for qi in q]
    for i, j, sign in ((0, 0, 1), (1, 1, 1), (0, 1, -1), (1, 0, -1)):
        law[i][j] += sign * epsilon
    return law


class TestDhatUnbiasedExactly:
    # E[D-hat] over the whole multinomial support of n draws from a law with
    # rational cells: exactly D for the paper's formula, and within 1e-15 of
    # D for the float estimator, whose rounding is all that is left
    F = Fraction
    LAWS = {
        "product": ([[F(1, 32), F(3, 32), F(1, 8)], [F(3, 32), F(9, 32), F(3, 8)]], 6),
        "zero cells": ([[F(5, 16), 0, F(1, 8)], [F(1, 16), F(1, 2), 0]], 7),
        "sparse 2x3": (sparse_law(2, 3, F(1, 21)), 8),
        "sparse 3x3": (sparse_law(3, 3, F(1, 49)), 6),
    }

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_expectation_is_d(self, name):
        law, n = self.LAWS[name]
        d = dependence_exact(law)
        assert multinomial_expectation(law, n, dhat_exact) == d
        floats = multinomial_expectation(law, n, lambda t: stats._dhat_value(t, n))
        assert abs(floats - d) <= 1e-15
        if name == "product":
            assert d == 0
        if name.startswith("sparse"):
            I, J = len(law), len(law[0])
            eps = law[0][0] - sparse_law(I, J, 0)[0][0]
            assert d == 4 * eps**2
            np.testing.assert_allclose(
                sparse_family(I, J, float(eps)).probs, np.array(law, dtype=float), rtol=1e-15
            )

    def test_exact_formula_matches_the_library_and_the_kernel_average(self):
        rng = np.random.default_rng(54)
        for shape, n in (((2, 3), 9), ((3, 3), 12), ((4, 2), 5)):
            for _ in range(10):
                t = random_table(rng, shape, n)
                assert float(dhat_exact(t.counts)) == pytest.approx(dhat_statistic(t), abs=1e-14)
        t = validate_table([[3, 1], [0, 4]])
        want = dhat_bruteforce(table_to_pairs(t))
        assert float(dhat_exact(t.counts)) == pytest.approx(want, abs=1e-15)

    def test_expectation_weights_sum_to_one(self):
        law = sparse_law(3, 3, Fraction(1, 49))
        assert multinomial_expectation(law, 5, lambda t: 1) == 1
        with pytest.raises(DomainError):
            multinomial_expectation([[Fraction(1, 2), Fraction(1, 3)]], 4, lambda t: 1)


class TestDhatBruteforce:
    def test_guards(self):
        with pytest.raises(SampleTooSmall):
            dhat_bruteforce([(0, 0)] * 3)
        with pytest.raises(SampleTooLargeForOracle):
            dhat_bruteforce([(0, 0)] * 13)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(10)
        pairs = [(0, 1), (1, 0), (0, 0), (1, 1), (0, 1), (1, 2)]
        base = dhat_bruteforce(pairs)
        for _ in range(5):
            perm = rng.permutation(len(pairs))
            assert dhat_bruteforce([pairs[k] for k in perm]) == pytest.approx(
                base, abs=1e-14
            )

    def test_all_identical_pairs(self):
        # Degenerate sample: X and Y are constants, so D = 0 exactly and
        # every kernel term is 1 - 2 + 1 = 0.
        assert dhat_bruteforce([(2, 5)] * 6) == 0.0


class TestLabelPermutationInvariance:
    def test_statistics_invariant_under_category_relabeling(self):
        rng = np.random.default_rng(11)
        t = random_table(rng, (3, 4), 50)
        while np.any(t.row_margins == 0) or np.any(t.col_margins == 0):
            t = random_table(rng, (3, 4), 50)
        for stat in (pearson_statistic, g_statistic, usp_statistic, dhat_statistic):
            base = float(stat(t))
            for _ in range(5):
                pr = rng.permutation(3)
                pc = rng.permutation(4)
                shuffled = validate_table(t.counts[np.ix_(pr, pc)])
                assert float(stat(shuffled)) == pytest.approx(base, rel=1e-12)
