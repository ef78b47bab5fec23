"""End-to-end acceptance checks, one test per criterion.

Each test pins a headline number or qualitative behavior of the package at
its stated tolerance: the classic-test values on the marital-status table,
the estimator identities, Monte Carlo size/power/unbiasedness levels, the
asymptotic size curve features, and the real-data studies.  Monte Carlo
checks fix seeds, so each test is deterministic.  The whole module is sized
to run serially in well under the documented budgets.
"""

import numpy as np
import pytest

from oracles import dhat_bruteforce
from usptest.asymptotics import size_curve
from usptest.datasets import get_dataset
from usptest.numerics import chi2_quantile
from usptest.permutation import PermutationConfig, permuted_tables, run_test
from usptest.simulate import (
    AlternativeFamily,
    dhat_samples,
    power_curve,
    subsample_study,
)
from usptest.stats import dhat_statistic, usp_statistic
from usptest.table import expected_counts, validate_table

MARITAL = get_dataset("marital").table
EYECOLOUR = get_dataset("eyecolour").table

# expected frequencies of the marital table, printed to one decimal place
MARITAL_EXPECTED = np.array(
    [
        [11.7, 27.0, 25.2, 16.2, 9.9],
        [19.5, 45.0, 42.0, 27.0, 16.5],
        [3.9, 9.0, 8.4, 5.4, 3.3],
        [3.9, 9.0, 8.4, 5.4, 3.3],
    ]
)


def random_table(rng, max_rows, max_cols, n_lo, n_hi):
    i = int(rng.integers(1, max_rows + 1))
    j = int(rng.integers(1, max_cols + 1))
    n = int(rng.integers(n_lo, n_hi + 1))
    probs = rng.dirichlet(np.ones(i * j))
    counts = rng.multinomial(n, probs).reshape(i, j)
    return validate_table(counts)


def table_to_pairs(table):
    pairs = []
    for (i, j), c in np.ndenumerate(table.counts):
        pairs.extend([(i, j)] * int(c))
    return pairs


def test_criterion_01_classic_pearson_on_marital():
    result = run_test(MARITAL, "pearson", "classic")
    assert result.statistic == pytest.approx(23.6, abs=0.05)
    assert result.p_value == pytest.approx(0.0235, abs=0.0005)


def test_criterion_02_classic_g_on_marital():
    result = run_test(MARITAL, "g", "classic")
    assert result.p_value == pytest.approx(0.0205, abs=0.0005)


def test_criterion_03_expected_frequencies_of_marital():
    np.testing.assert_allclose(expected_counts(MARITAL), MARITAL_EXPECTED, atol=0.05)


def test_criterion_04_usp_p_value_on_marital_across_seeds():
    p_values = [
        run_test(
            MARITAL, "usp", "permutation", PermutationConfig(B=999, seed=seed)
        ).p_value
        for seed in range(100)
    ]
    assert np.median(p_values) <= 0.01
    assert max(p_values) <= 0.02


def test_criterion_05_dhat_matches_kernel_average_oracle():
    rng = np.random.default_rng(52)
    checked = 0
    while checked < 200:
        table = random_table(rng, max_rows=3, max_cols=3, n_lo=4, n_hi=10)
        fast = float(dhat_statistic(table))
        slow = dhat_bruteforce(table_to_pairs(table))
        assert fast == pytest.approx(slow, abs=1e-10)
        checked += 1


def test_criterion_06_uhat_and_dhat_rank_identically():
    rng = np.random.default_rng(61)
    for _ in range(50):
        table = random_table(rng, max_rows=4, max_cols=5, n_lo=20, n_hi=60)
        u0 = float(usp_statistic(table))
        d0 = float(dhat_statistic(table))
        shared = [validate_table(c) for c in permuted_tables(table, 200, rng)]
        u = np.array([float(usp_statistic(t)) for t in shared])
        d = np.array([float(dhat_statistic(t)) for t in shared])
        assert int((u > u0).sum()) == int((d > d0).sum())
        assert int((u == u0).sum()) == int((d == d0).sum())


def test_criterion_07_dhat_unbiased_on_sparse_alternative():
    fam = AlternativeFamily(kind="sparse", I=5, J=8)
    values = dhat_samples(fam, n=100, epsilon=0.05, reps=10_000, seed=0)
    se = values.std(ddof=1) / np.sqrt(len(values))
    assert abs(values.mean() - 0.01) <= 3 * se


@pytest.mark.slow
def test_criterion_08_permutation_tests_hold_size_at_null():
    fam = AlternativeFamily(kind="sparse", I=5, J=8)
    config = PermutationConfig(B=99, alpha=0.05, seed=0)
    tests = [("usp", "permutation"), ("pearson", "permutation"), ("g", "permutation")]
    points = power_curve(fam, [0.0], n=100, reps=2000, tests=tests, config=config)
    for rate in points[0].rates:
        assert rate.rejection_rate == pytest.approx(0.05, abs=0.015), rate.method


@pytest.mark.slow
def test_criterion_09_power_ordering_on_sparse_alternative():
    fam = AlternativeFamily(kind="sparse", I=5, J=8)
    config = PermutationConfig(B=99, alpha=0.05, seed=0)
    tests = [("usp", "permutation"), ("pearson", "permutation"), ("g", "permutation")]
    points = power_curve(fam, [0.06], n=100, reps=1000, tests=tests, config=config)
    rates = {rate.method: rate.rejection_rate for rate in points[0].rates}
    assert rates["usp"] == pytest.approx(0.89, abs=0.05)
    assert rates["g"] == pytest.approx(0.59, abs=0.05)
    assert rates["pearson"] == pytest.approx(0.28, abs=0.05)
    assert rates["usp"] > rates["g"] > rates["pearson"]


@pytest.mark.slow
def test_criterion_10_similar_power_on_dense_alternative():
    fam = AlternativeFamily(kind="dense", I=6, J=8)
    config = PermutationConfig(B=99, alpha=0.05, seed=0)
    tests = [("usp", "permutation"), ("pearson", "permutation"), ("g", "permutation")]
    reps = 300
    points = power_curve(
        fam, fam.default_eps_grid(), n=100, reps=reps, tests=tests, config=config
    )
    for pt in points:
        for a in range(3):
            for b in range(a + 1, 3):
                ra, rb = pt.rates[a], pt.rates[b]
                gap = abs(ra.rejection_rate - rb.rejection_rate)
                tol = 0.05 + 3 * np.hypot(ra.std_err, rb.std_err)
                assert gap <= tol, (pt.epsilon, ra.method, rb.method, gap, tol)


def test_criterion_11_asymptotic_size_features():
    assert size_curve("pearson", 0.05, [1.0])[0].asymptotic_size == pytest.approx(0.0803, abs=1e-4)
    assert size_curve("g", 0.05, [1.0])[0].asymptotic_size == pytest.approx(0.01899, abs=1e-4)

    # at the 1% level the Pearson curve spikes an order of magnitude above
    # nominal somewhere below lambda = 3
    grid = np.linspace(0.05, 3.0, 300)
    sizes = [pt.asymptotic_size for pt in size_curve("pearson", 0.01, grid)]
    assert max(sizes) >= 0.1

    # the G-test curve jumps where observing zero events first rejects
    lam_star = np.sqrt(chi2_quantile(0.95, 1) / 2.0)
    below, above = (
        pt.asymptotic_size for pt in size_curve("g", 0.05, [lam_star - 1e-9, lam_star + 1e-9])
    )
    assert above - below >= 0.1


@pytest.mark.slow
def test_criterion_12_subsampling_rejection_rates():
    config = PermutationConfig(B=999, alpha=0.05, seed=0)
    tests = [("usp", "permutation"), ("pearson", "permutation"), ("g", "permutation")]
    for table, m, targets in (
        (EYECOLOUR, 84, (0.300, 0.245, 0.232)),
        (MARITAL, 150, (0.672, 0.588, 0.599)),
    ):
        study = subsample_study(table, m=m, reps=1000, tests=tests, config=config)
        for rate, target in zip(study.rates, targets):
            assert rate.rejection_rate == pytest.approx(target, abs=0.05), (
                table.shape,
                rate.method,
            )


@pytest.mark.slow
def test_criterion_13_full_table_eyecolour_p_values():
    windows = {
        "usp": (0.0495 - 0.02, 0.0495 + 0.02),
        "pearson": (0.171 - 0.02, 0.171 + 0.02),
        "g": (0.165 - 0.02, 0.165 + 0.02),
    }
    hits = {method: 0 for method in windows}
    joint = 0
    for seed in range(100):
        config = PermutationConfig(B=999, seed=seed)
        in_window = []
        for method, (lo, hi) in windows.items():
            p = run_test(EYECOLOUR, method, "permutation", config).p_value
            ok = lo <= p <= hi
            hits[method] += ok
            in_window.append(ok)
        joint += all(in_window)
    assert joint >= 95, f"runs with all three p-values in window: {joint}/100, {hits}"
