"""Tests for the exact asymptotic size curves of the classic tests."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as scipy_stats

from usptest import asymptotics
from usptest.asymptotics import (
    DEFAULT_LAMBDA_GRID,
    SizeCurvePoint,
    g_asymptotic_size,
    pearson_asymptotic_size,
    size_curve,
    size_curve_csv,
)
from usptest.errors import DomainError
from usptest.numerics import chi2_quantile

from oracles import poisson_pmf, poisson_tail_mass


def poisson_rejection_oracle(mu, alpha, statistic, terms=400):
    """Sum Poisson point masses where the limiting statistic exceeds c_alpha."""
    c = chi2_quantile(1.0 - alpha, 1)
    return sum(poisson_pmf(z, mu) for z in range(terms) if statistic(z, mu) > c)


def scipy_two_tail_size(lam, alpha, statistic):
    """Size from scipy's Poisson tails.  Both limit statistics are convex in z
    with minimum 0 at z = mu, so they reject z <= z_lo and z >= z_hi."""
    c = scipy_stats.chi2.ppf(1.0 - alpha, 1)
    mu = lam * lam
    z_lo = math.floor(mu)
    while z_lo >= 0 and statistic(z_lo, mu) <= c:
        z_lo -= 1
    z_hi = math.ceil(mu)
    while statistic(z_hi, mu) <= c:
        z_hi += 1
    lower = scipy_stats.poisson.cdf(z_lo, mu) if z_lo >= 0 else 0.0
    return float(lower + scipy_stats.poisson.sf(z_hi - 1, mu))


def pearson_limit(z, mu):
    return (z - mu) ** 2 / mu


def g_limit(z, mu):
    if z == 0:
        return 2.0 * mu
    return 2.0 * z * math.log(z / mu) - 2.0 * (z - mu)


class TestReferenceValues:
    def test_pearson_at_lambda_one(self):
        # mu = 1, c_0.05 = 3.8415: rejection region is z >= 3, whose Poisson(1)
        # mass is 1 - (1 + 1 + 1/2)/e.
        want = 1.0 - 2.5 / math.e
        got = pearson_asymptotic_size(1.0, 0.05)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.0803, abs=1e-4)

    def test_g_at_lambda_one(self):
        # mu = 1: the G limit values are g(0)=2, g(1)=0, g(2)=0.77, g(3)=2.59,
        # g(4)=5.09, so the region beyond c_0.05 = 3.8415 is z >= 4 with
        # Poisson(1) mass 1 - (1 + 1 + 1/2 + 1/6)/e.
        want = 1.0 - (8 / 3) / math.e
        got = g_asymptotic_size(1.0, 0.05)
        assert got == pytest.approx(want, abs=1e-10)
        assert got == pytest.approx(0.0190, abs=1e-4)

    def test_matches_bruteforce_oracle_random(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            lam = float(rng.uniform(0.05, 3.0))
            alpha = float(rng.uniform(0.005, 0.2))
            mu = lam * lam
            assert pearson_asymptotic_size(lam, alpha) == pytest.approx(
                poisson_rejection_oracle(mu, alpha, pearson_limit), abs=1e-9
            )
            assert g_asymptotic_size(lam, alpha) == pytest.approx(
                poisson_rejection_oracle(mu, alpha, g_limit), abs=1e-9
            )

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_default_grid_matches_the_summation_oracle(self, alpha):
        c = chi2_quantile(1.0 - alpha, 1)
        for test, statistic in (("pearson", pearson_limit), ("g", g_limit)):
            for pt in size_curve(test, alpha):
                mu = pt.lam * pt.lam
                want = poisson_tail_mass(lambda z: statistic(z, mu) > c, mu)
                assert pt.asymptotic_size == pytest.approx(want, abs=1e-11), (test, pt.lam)

    @pytest.mark.parametrize("lam", [30.0, 300.0, 1000.0])
    def test_large_lambda_against_scipy(self, lam):
        # the window keeps its accuracy where a sum from z = 0 runs out of
        # terms (mu = 10^6 at the cap)
        for alpha in (0.05, 0.01):
            assert pearson_asymptotic_size(lam, alpha) == pytest.approx(
                scipy_two_tail_size(lam, alpha, pearson_limit), abs=1e-12
            )
            assert g_asymptotic_size(lam, alpha) == pytest.approx(
                scipy_two_tail_size(lam, alpha, g_limit), abs=1e-12
            )


class TestArrayPass:
    # small and large lambdas in no order; 996 is about the largest lambda
    # whose Poisson mass the oracle's 10^6 terms cover to 1 - 1e-12
    MIXED = [0.3, 996.0, 2.0, 40.0, 0.05, 150.0, 7.5]

    @pytest.mark.parametrize("test", ["pearson", "g"])
    def test_mixed_grid_across_chunks_matches_the_summation_oracle(self, test, monkeypatch):
        chunks = []
        window_sizes = asymptotics._window_sizes

        def spy(method, c, mu, lo, hi):
            chunks.append(len(mu))
            return window_sizes(method, c, mu, lo, hi)

        monkeypatch.setattr(asymptotics, "_window_sizes", spy)
        statistic = {"pearson": pearson_limit, "g": g_limit}[test]
        c = chi2_quantile(0.95, 1)
        pts = size_curve(test, 0.05, self.MIXED)
        assert len(chunks) >= 2 and sum(chunks) == len(self.MIXED)
        for pt in pts:
            mu = pt.lam * pt.lam
            want = poisson_tail_mass(lambda z: statistic(z, mu) > c, mu)
            # the oracle stops 1e-12 short of the full mass, and its log-space
            # point masses lose about 1e-9 relative at mu = 10^6
            assert pt.asymptotic_size == pytest.approx(want, abs=1e-11), pt.lam

    def test_a_size_depends_on_its_lambda_alone(self):
        # sizes are summed sequentially, so neither the grid's order nor the
        # other lambdas sharing a chunk move a value by one bit
        grid = [float(x) for x in np.linspace(0.05, 60.0, 300)] + self.MIXED
        shuffled = [grid[i] for i in np.random.default_rng(15).permutation(len(grid))]
        for test, single in (("pearson", pearson_asymptotic_size), ("g", g_asymptotic_size)):
            by_lambda = {pt.lam: pt.asymptotic_size for pt in size_curve(test, 0.01, grid)}
            pts = size_curve(test, 0.01, shuffled)
            assert [pt.lam for pt in pts] == shuffled
            assert [pt.asymptotic_size for pt in pts] == [by_lambda[lam] for lam in shuffled]
            for lam in self.MIXED:
                assert single(lam, 0.01) == by_lambda[lam]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([1.0, -1.0, math.inf], "positive, got -1.0"),
            ([1.0, math.inf, -1.0], "at most 1000, got inf"),
            ([2.0, 0.0, math.nan], "positive, got 0.0"),
            ([math.nan, 0.0], "at most 1000, got nan"),
            ([-math.inf, 0.5], "at most 1000, got -inf"),
            ([0.5, 1000.0, 1001.0], "at most 1000, got 1001.0"),
        ],
    )
    def test_reports_the_first_bad_lambda_in_grid_order(self, grid, message):
        with pytest.raises(DomainError, match=message):
            size_curve("pearson", 0.05, grid)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.999, 0.999999])
    def test_size_never_exceeds_one(self, alpha):
        # near alpha = 1 almost every z is rejected, and at some lambdas every
        # z in the window is; the rejected mass is summed like the total
        grid = np.linspace(0.01, 50.0, 2000)
        for test in ("pearson", "g"):
            sizes = np.array([pt.asymptotic_size for pt in size_curve(test, alpha, grid)])
            assert sizes.max() == 1.0
            assert (sizes <= 1.0).all()

    @pytest.mark.parametrize("grid", [None, [1000.0] * 50], ids=["default", "lambda-1000"])
    def test_memory_stays_within_one_chunk(self, grid):
        # one chunk's temporaries are a few float64 arrays of at most 2^13
        # cells, or of one 24 025-cell window at lambda = 1000, whatever the
        # grid's length; one pass over the whole default grid peaks near 3 MB
        size_curve("g", 0.05, grid)
        tracemalloc.start()
        try:
            size_curve("g", 0.05, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCurveShape:
    def test_pearson_exceeds_double_nominal_somewhere(self):
        sizes = [pearson_asymptotic_size(l, 0.05) for l in np.linspace(0.2, 3.0, 120)]
        assert max(sizes) > 0.10

    def test_pearson_size_can_exceed_ten_percent_at_one_percent_level(self):
        sizes = [pearson_asymptotic_size(l, 0.01) for l in DEFAULT_LAMBDA_GRID if l <= 3.0]
        assert max(sizes) >= 0.10

    def test_curves_oscillate(self):
        # Size is far from settling at alpha: both above and below by a wide
        # margin over moderate lambda.
        for fn in (pearson_asymptotic_size, g_asymptotic_size):
            sizes = np.array([fn(l, 0.05) for l in np.linspace(0.2, 5.0, 200)])
            assert sizes.max() > 0.07
            assert sizes.min() < 0.03
            assert sizes.max() - sizes.min() > 0.02

    def test_g_jump_at_atom_boundary(self):
        # The z = 0 atom switches rejection sides at lambda = sqrt(c_alpha/2):
        # the statistic at z = 0 is 2 mu, crossing c there. The jump size is
        # the Poisson atom e^{-mu} = e^{-c/2}, a visible discontinuity.
        for alpha in (0.05, 0.01):
            c = chi2_quantile(1.0 - alpha, 1)
            boundary = math.sqrt(c / 2.0)
            below = g_asymptotic_size(boundary - 1e-6, alpha)
            above = g_asymptotic_size(boundary + 1e-6, alpha)
            assert abs(above - below) > 0.5 * math.exp(-c / 2.0)
            assert abs(above - below) > 0.01

    def test_pearson_jump_at_atom_boundary(self):
        # Pearson's z = 0 statistic equals mu, so its atom boundary sits at
        # lambda = sqrt(c_alpha).
        c = chi2_quantile(0.95, 1)
        boundary = math.sqrt(c)
        below = pearson_asymptotic_size(boundary - 1e-6, 0.05)
        above = pearson_asymptotic_size(boundary + 1e-6, 0.05)
        assert abs(above - below) > 0.01


class TestSizeCurve:
    def test_single_point(self):
        pts = size_curve("pearson", 0.05, [1.0])
        assert len(pts) == 1
        assert pts[0].lam == 1.0
        assert pts[0].test == "pearson"
        assert pts[0].alpha == 0.05
        assert pts[0].asymptotic_size == pytest.approx(0.0803, abs=1e-4)

    def test_default_grid(self):
        pts = size_curve("g", 0.05)
        assert len(pts) == len(DEFAULT_LAMBDA_GRID)
        assert pts[0].lam == pytest.approx(0.05)
        assert pts[-1].lam == pytest.approx(5.0)

    def test_grid_order_preserved(self):
        grid = [2.0, 0.5, 1.0]
        pts = size_curve("pearson", 0.1, grid)
        assert [p.lam for p in pts] == grid

    def test_unknown_test(self):
        with pytest.raises(DomainError):
            size_curve("usp", 0.05, [1.0])

    def test_a_numpy_alpha_is_reported_as_the_float_it_holds(self):
        # the CSV printed np.float32(0.05) in the alpha column
        pts = size_curve("g", np.float32(0.05), [1.0])
        assert type(pts[0].alpha) is float
        assert size_curve_csv(pts).splitlines()[1].startswith("1.0,0.05000000074505806,g,")

    def test_size_outside_unit_interval_raises(self, monkeypatch):
        def sizes(test, c, lam):
            out = np.full(len(lam), 0.05)
            out[1] = 1.5
            return out

        monkeypatch.setattr(asymptotics, "_sizes", sizes)
        with pytest.raises(DomainError, match=r"size must lie in \[0, 1\], got 1.5"):
            size_curve("g", 0.05, [0.5, 1.0, 2.0])

    def test_point_fields(self):
        assert SizeCurvePoint._fields == ("lam", "alpha", "asymptotic_size", "test")
        pt = SizeCurvePoint(lam=1.0, alpha=0.05, asymptotic_size=0.08, test="pearson")
        assert pt == (1.0, 0.05, 0.08, "pearson")
        assert size_curve("pearson", 0.05, [1.0])[0] == SizeCurvePoint(
            1.0, 0.05, pearson_asymptotic_size(1.0, 0.05), "pearson"
        )

    @pytest.mark.parametrize("lam", [1e-160, 1e-170, 1e-300])
    def test_tiny_lambda_warns_nothing(self, lam):
        # mu = lambda^2 is subnormal or 0; the size is P(Z >= 1) <= mu
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (pearson_asymptotic_size, g_asymptotic_size):
                assert 0.0 <= fn(lam, 0.05) <= 2 * lam * lam + 1e-300


class TestDomain:
    def test_lambda_positive(self):
        with pytest.raises(DomainError):
            pearson_asymptotic_size(0.0, 0.05)
        with pytest.raises(DomainError):
            g_asymptotic_size(-1.0, 0.05)

    def test_lambda_capped_and_finite(self):
        assert 0.04 < pearson_asymptotic_size(1000.0, 0.05) < 0.06
        for lam in (1000.5, 1100.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="1000"):
                pearson_asymptotic_size(lam, 0.05)
            with pytest.raises(DomainError, match="1000"):
                size_curve("g", 0.05, [1.0, lam])

    def test_alpha_open_interval(self):
        with pytest.raises(DomainError):
            pearson_asymptotic_size(1.0, 0.0)
        with pytest.raises(DomainError):
            g_asymptotic_size(1.0, 1.0)

    @pytest.mark.parametrize(
        "alpha, message",
        [("0.05", "alpha must be a number, got '0.05'"), (None, "alpha must be a number, got None"),
         (0.0, "alpha must lie in (0, 1), got 0.0"), (1.0, "alpha must lie in (0, 1), got 1.0"),
         (math.nan, "alpha must lie in (0, 1), got nan")],
    )
    def test_size_curve_alpha(self, alpha, message):
        # a string level is refused, not coerced, and never reaches a comparison
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            size_curve("pearson", alpha, [1.0])

    def test_alpha_below_the_floor_names_alpha(self):
        # 1 - alpha rounded to 1, and the message named chi2_quantile's p
        floor = math.nextafter(2.0**-54, 1.0)
        for test in ("pearson", "g"):
            for alpha in (1e-17, 2.0**-54, math.nextafter(floor, 0.0), 5e-324):
                with pytest.raises(DomainError, match=re.escape(
                    f"alpha must be at least {floor!r}, below which 1 - alpha rounds to 1"
                ) + f".*got {re.escape(str(alpha))}$"):
                    size_curve(test, alpha, [1.0])
            # the floor itself is taken
            assert 0.0 <= size_curve(test, floor, [1.0])[0].asymptotic_size <= 1.0
