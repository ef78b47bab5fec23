"""Tests for the special functions and the seeded stream scheme."""

import math
import re

import numpy as np
import pytest

from usptest.errors import DomainError
from usptest.numerics import RandomStream, _gamma_tails, chi2_quantile, chi2_sf

from oracles import poisson_pmf, poisson_tail_mass

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")


def lower_gamma(a, x):
    # the regularized lower incomplete gamma P(a, x), which chi2_quantile
    # compares below the median
    return _gamma_tails(a, x)[0]


def chi2_cdf(x, k):
    return lower_gamma(k / 2.0, x / 2.0)


class TestRegLowerGamma:
    def test_against_scipy_grid(self):
        rng = np.random.default_rng(11)
        a_vals = np.concatenate([rng.uniform(0.05, 2.0, 60), rng.uniform(2.0, 60.0, 60)])
        for a in a_vals:
            for x in [0.0, a / 7, a / 2, a, 2 * a, 5 * a + 1.0]:
                got = lower_gamma(a, x)
                want = scipy_special.gammainc(a, x)
                assert got == pytest.approx(want, abs=1e-12, rel=1e-12), (a, x)

    def test_half_half_is_erf(self):
        # P(1/2, x) = erf(sqrt(x)); an identity independent of any gamma code.
        for x in [0.1, 0.5, 1.0, 2.5]:
            assert lower_gamma(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), abs=1e-13)

    def test_limits(self):
        assert lower_gamma(3.0, 0.0) == 0.0
        assert lower_gamma(1.0, 745.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 400)
        vals = [lower_gamma(4.5, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestChi2:
    def test_cdf_against_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = rng.integers(1, 31)
            x = rng.uniform(0.0, 4.0 * k)
            assert chi2_cdf(x, int(k)) == pytest.approx(
                scipy_stats.chi2.cdf(x, int(k)), abs=1e-12
            )

    def test_exponential_special_case(self):
        # With 2 degrees of freedom the distribution is Exp(1/2).
        for x in [0.3, 1.0, 4.0]:
            assert chi2_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2), abs=1e-13)

    def test_quantile_against_scipy(self):
        # the bracket is bisected to exhaustion, and the upper tail is solved
        # on chi2_sf, so even p = 1 - 1e-6 keeps full relative accuracy
        for k in [1, 2, 4, 5, 12, 30]:
            for p in [1e-6, 0.01, 0.05, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999, 1 - 1e-5, 1 - 1e-6]:
                want = scipy_stats.chi2.ppf(p, k)
                assert chi2_quantile(p, k) == pytest.approx(want, rel=1e-12, abs=0), (k, p)

    def test_quantile_round_trip(self):
        for k in [1, 3, 7, 20]:
            for p in np.linspace(0.01, 0.99, 25):
                assert chi2_cdf(chi2_quantile(float(p), k), k) == pytest.approx(
                    p, abs=1.5e-10
                )

    # about 200 p: both tails down to 1e-8, the median and the levels in use
    QUANTILE_PS = sorted(
        {1e-6, 1e-4, 0.5, 0.95, 0.99, 0.9999, 1 - 1e-6}
        | set(np.geomspace(1e-8, 0.5, 64).tolist())
        | set((1.0 - np.geomspace(1e-8, 0.5, 64)).tolist())
        | set(np.linspace(0.005, 0.995, 67).tolist())
    )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 20, 30, 100, 1000])
    def test_quantile_matches_scipy(self, k):
        # scipy inverts each tail where it is held to full relative accuracy
        for p in self.QUANTILE_PS:
            want = scipy_stats.chi2.ppf(p, k) if p <= 0.5 else scipy_stats.chi2.isf(1 - p, k)
            assert chi2_quantile(p, k) == pytest.approx(want, rel=1e-13, abs=0), (k, p)

    @pytest.mark.parametrize("p", [0.95, 0.99, 0.3])
    def test_quantile_at_one_degree_of_freedom_sums_no_series(self, monkeypatch, p):
        # at k = 1 both tails are erf and erfc, so no step of the bisection
        # runs the series or the continued fraction
        from usptest import numerics

        def no_call(*args):
            raise AssertionError("incomplete gamma expansion called")

        want = chi2_quantile(p, 1)
        monkeypatch.setattr(numerics, "_gamma_series", no_call)
        monkeypatch.setattr(numerics, "_gamma_cf", no_call)
        assert chi2_quantile(p, 1) == want

    def test_reference_value(self):
        # The 95% point of chi-squared with 1 df, a textbook constant.
        assert chi2_quantile(0.95, 1) == pytest.approx(3.841458820694124, abs=1e-8)

    def test_sf_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            k = int(rng.integers(1, 31))
            x = rng.uniform(0.0, 4.0 * k)
            want = scipy_stats.chi2.sf(x, k)
            assert chi2_sf(x, k) == pytest.approx(want, abs=1e-12, rel=1e-10)
        assert chi2_sf(0.0, 4) == 1.0

    def test_sf_far_tail_keeps_relative_accuracy(self):
        # where 1 - chi2_cdf is exactly 0.0; values from scipy.stats.chi2.sf
        assert chi2_sf(1000.0, 1) == pytest.approx(1.795832784800736e-219, rel=1e-12)
        assert chi2_sf(1386.2943611198905, 1) == pytest.approx(
            1.9984990900553828e-303, rel=1e-12
        )
        assert chi2_sf(300.0, 12) == pytest.approx(scipy_stats.chi2.sf(300.0, 12), rel=1e-12)

    def test_one_degree_of_freedom_against_scipy(self):
        # the closed forms erfc(sqrt(x / 2)) and erf(sqrt(y)), from the far
        # left tail to where the upper one nears the float minimum
        for x in np.geomspace(1e-12, 1400.0, 300):
            assert chi2_sf(x, 1) == pytest.approx(scipy_stats.chi2.sf(x, 1), rel=1e-12), x
            y = x / 2.0
            assert lower_gamma(0.5, y) == pytest.approx(
                scipy_special.gammainc(0.5, y), rel=1e-12
            ), y

    @pytest.mark.parametrize("k", [1, 10, 10**3, 10**4, 10**5, 10**6, 10**7])
    def test_large_degrees_of_freedom_against_scipy(self, k):
        # near x = k both expansions need on the order of sqrt(k) terms; a
        # fixed cap of 1000 gave chi2_sf(10^6, 10^6) = 0.578 (scipy: 0.4998)
        rel = 1e-12 if k <= 10**3 else 1e-9 if k <= 10**6 else 1e-7
        for x in (0.99 * k, k, 1.01 * k, 1.05 * k):
            assert chi2_sf(x, k) == pytest.approx(scipy_stats.chi2.sf(x, k), rel=rel), x
            assert chi2_cdf(x, k) == pytest.approx(scipy_stats.chi2.cdf(x, k), rel=rel), x

    def test_unconverged_sum_raises(self, monkeypatch):
        from usptest import numerics

        monkeypatch.setattr(numerics, "_term_budget", lambda a: 10)
        with pytest.raises(DomainError, match="series did not converge in 10 terms"):
            chi2_sf(1000.0, 1000)
        with pytest.raises(DomainError, match="continued fraction did not converge in 10 terms"):
            chi2_sf(1010.0, 1000)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_sf(-1.0, 3)
        with pytest.raises(DomainError):
            chi2_sf(1.0, 0)
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 3)
        with pytest.raises(DomainError):
            chi2_quantile(1.0, 3)


class TestPoisson:
    # the summation oracle that usptest.asymptotics is tested against
    def test_pmf_against_direct_formula(self):
        for mu in [0.25, 1.0, 4.0]:
            for z in range(0, 31):
                direct = math.exp(-mu) * mu**z / math.factorial(z)
                assert poisson_pmf(z, mu) == pytest.approx(direct, rel=1e-12)

    def test_pmf_against_scipy(self):
        for mu in [0.1, 2.5, 40.0]:
            z = np.arange(0, 200)
            want = scipy_stats.poisson.pmf(z, mu)
            got = np.array([poisson_pmf(int(v), mu) for v in z])
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-300)

    def test_tail_mass_normalizes(self):
        for mu in [0.25, 1.0, 9.0]:
            assert poisson_tail_mass(lambda z: True, mu) == pytest.approx(1.0, abs=1e-10)
            assert poisson_tail_mass(lambda z: False, mu) == 0.0

    def test_tail_mass_closed_form(self):
        # P(Z >= 3) for Z ~ Poisson(1) is 1 - (1 + 1 + 1/2) / e.
        want = 1.0 - 2.5 / math.e
        assert poisson_tail_mass(lambda z: z >= 3, 1.0) == pytest.approx(want, abs=1e-11)

    def test_tail_mass_matches_scipy_sf(self):
        for mu in [0.5, 2.0, 12.0]:
            for cutoff in [0, 1, 5, 20]:
                want = scipy_stats.poisson.sf(cutoff, mu)
                got = poisson_tail_mass(lambda z: z > cutoff, mu)
                assert got == pytest.approx(want, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(DomainError):
            poisson_pmf(0, -1.0)
        with pytest.raises(DomainError):
            poisson_tail_mass(lambda z: True, 0.0)


class TestRandomStream:
    def test_same_ids_same_draws(self):
        a = RandomStream(7, (1, 2)).generator().random(16)
        b = RandomStream(7, (1, 2)).generator().random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_ids_distinct_draws(self):
        base = RandomStream(7)
        seen = set()
        streams = [base, base.child(0), base.child(1), base.child(0).child(0), base.child(0, 1)]
        for s in streams:
            seen.add(tuple(s.generator().random(8).tolist()))
        assert len(seen) == len(streams)

    def test_child_indices_extend_path(self):
        s = RandomStream(42).child(3).child(1, 4)
        assert s.stream_id == (3, 1, 4)
        assert s.master_seed == 42

    def test_single_int_id_normalized(self):
        assert RandomStream(5, 9).stream_id == (9,)

    def test_invalid_ids(self):
        with pytest.raises(DomainError):
            RandomStream(-1)
        with pytest.raises(DomainError):
            RandomStream(3, (-2,))
        with pytest.raises(DomainError):
            RandomStream(3).child(-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7", None, -1, 2**64])
    def test_seed_must_be_a_64_bit_unsigned_integer(self, seed):
        with pytest.raises(DomainError, match=re.escape(repr(seed))):
            RandomStream(seed)

    @pytest.mark.parametrize("indices", [(1.5,), (0, 2.0), ("1",), (None,), (0, -2)])
    def test_stream_indices_must_be_non_negative_integers(self, indices):
        with pytest.raises(DomainError, match="stream_id"):
            RandomStream(3, indices)
        with pytest.raises(DomainError, match="stream_id"):
            RandomStream(3, (1,)).child(*indices)
        with pytest.raises(DomainError, match=re.escape(repr(indices[-1]))):
            RandomStream(3, indices[-1])

    def test_numpy_integers_are_integers(self):
        s = RandomStream(np.uint64(7), (np.int64(1), 2))
        assert (s.master_seed, s.stream_id) == (7, (1, 2))
        assert type(s.master_seed) is int
        np.testing.assert_array_equal(
            s.generator().random(4), RandomStream(7, (1, 2)).generator().random(4)
        )

    def test_uniformity_chi_square(self):
        # One million draws binned into 64 cells; a goodness-of-fit check
        # using our own chi-squared upper tail at the 0.001 level.
        gen = RandomStream(123, (5,)).generator()
        bins = np.bincount((gen.random(1_000_000) * 64).astype(int), minlength=64)
        expected = 1_000_000 / 64
        stat = float(((bins - expected) ** 2 / expected).sum())
        assert chi2_sf(stat, 63) > 0.001

    def test_sibling_streams_uncorrelated(self):
        x = RandomStream(9).child(0).generator().random(100_000)
        y = RandomStream(9).child(1).generator().random(100_000)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.02
