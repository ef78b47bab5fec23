"""Tests for table validation, distributions, sampling, and subsampling."""

import copy
import pickle
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from usptest.errors import (
    DomainError,
    EmptySample,
    EmptyTable,
    NegativeCount,
    SubsampleTooLarge,
)
from usptest.numerics import RandomStream
from usptest.table import (
    ContingencyTable,
    JointDistribution,
    _expected,
    expected_counts,
    sample_table,
    subsample,
    validate_table,
)

MARITAL_COUNTS = [
    [18, 36, 21, 9, 6],
    [12, 36, 45, 36, 21],
    [6, 9, 9, 3, 3],
    [3, 9, 9, 6, 3],
]

# pickle (as a process pool sends its tasks), copy and deepcopy
ROUND_TRIPS = [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]


class TestValidation:
    def test_marital_margins(self):
        t = validate_table(MARITAL_COUNTS)
        assert t.n == 300
        assert t.shape == (4, 5)
        np.testing.assert_array_equal(t.row_margins, [90, 150, 30, 30])
        np.testing.assert_array_equal(t.col_margins, [39, 90, 84, 54, 33])

    def test_zero_table_is_valid(self):
        t = validate_table([[0]])
        assert t.n == 0
        assert t.shape == (1, 1)

    def test_integral_floats_accepted(self):
        t = validate_table(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert t.counts.dtype == np.int64
        assert t.n == 10

    def test_negative_count_names_cell(self):
        with pytest.raises(NegativeCount, match=r"\(0,1\)"):
            validate_table([[1, -1]])

    def test_non_integral_rejected(self):
        with pytest.raises(DomainError, match=r"\(1,0\)"):
            validate_table([[1, 2], [3.5, 4]])

    def test_counts_past_int64_rejected(self):
        # a cast to int64 would wrap these and misreport them as negative
        for raw in ([[1e20, 1], [1, 1]], [[1, -1e20]], np.array([[1, 2**63]], dtype=np.uint64)):
            with pytest.raises(DomainError, match="outside the int64 range"):
                validate_table(raw)
        # past uint64 numpy holds an integer as a Python object, and a list
        # holding 2**63 reads as float64: either way the message has the
        # cell and the exact integer
        for raw, cell, big in (
            ([[1, 2], [3, 2**64]], "(1,1)", 2**64),
            ([[1, 2], [3, 2**63]], "(1,1)", 2**63),
            ([[-1, 2**64 - 1]], "(0,1)", 2**64 - 1),
            ([[1, -(2**70)]], "(0,1)", -(2**70)),
        ):
            message = re.escape(f"cell {cell} is outside the int64 range: {big}") + "$"
            with pytest.raises(DomainError, match=message):
                validate_table(raw)
        with pytest.raises(DomainError, match="outside the int64 range: 1e\\+20$"):
            validate_table([[1e20, 1], [1, 1]])
        # object entries that are not integers keep their message
        for raw in ([[1, None]], [[1, 2], [3, "4"], [None, 2**64]]):
            with pytest.raises(DomainError, match="table entries must be numeric"):
                validate_table(raw)
        assert validate_table(np.array([[1, 2]], dtype=object)).counts.dtype == np.int64
        assert validate_table([[2**63 - 1]]).counts[0, 0] == 2**63 - 1

    def test_messages_name_the_fault_in_plain_numbers(self):
        # an object array of numbers is checked as the float path checks a
        # float array, integrality first and range second, and every message
        # prints a value as Python prints it, not as a numpy repr
        for raw, message in (
            ([[1.5, 2**64]], "cell (0,0) is not an integer: 1.5"),
            ([[2.0, 2**64]], "cell (0,1) is outside the int64 range: 18446744073709551616"),
            ([[1.5, 2]], "cell (0,0) is not an integer: 1.5"),
            ([[1, float("nan")]], "cell (0,1) is not an integer: nan"),
            (np.array([[1, np.float32(2.5)]], dtype=object), "cell (0,1) is not an integer: 2.5"),
            ([[2**64, "4"]], "table entries must be numeric"),
        ):
            with pytest.raises(DomainError, match=re.escape(message) + "$"):
                validate_table(raw)
        assert validate_table([[2.0, 3], [2**62, 0]]).counts.tolist() == [[2, 3], [2**62, 0]]

    def test_total_past_int64_rejected(self):
        # every cell fits in int64, but the total and the margins would wrap
        with pytest.raises(DomainError, match="table total 13835058055282163713 is outside"):
            validate_table([[2**62, 2**62], [2**62, 1]])
        t = validate_table([[2**62, 2**62 - 1], [0, 0]])
        assert t.n == 2**63 - 1 and t.row_margins[0] == 2**63 - 1

    def test_ragged_rejected(self):
        with pytest.raises(DomainError):
            validate_table([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyTable):
            validate_table([])
        with pytest.raises(EmptyTable):
            validate_table([[], []])

    def test_immutable(self):
        t = validate_table([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            t.counts[0, 0] = 5
        with pytest.raises(AttributeError):
            t.n = 7

    def test_input_not_aliased(self):
        arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
        t = validate_table(arr)
        arr[0, 0] = 99
        assert t.counts[0, 0] == 1
        assert arr.flags.writeable

    def test_equality_and_hash(self):
        a = validate_table([[1, 2], [3, 4]])
        b = validate_table([[1, 2], [3, 4]])
        c = validate_table([[1, 2], [3, 5]])
        assert a == b and hash(a) == hash(b)
        assert a != c

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, round_trip):
        t = validate_table(MARITAL_COUNTS)
        back = round_trip(t)
        assert back == t and back.n == t.n
        np.testing.assert_array_equal(back.row_margins, t.row_margins)
        np.testing.assert_array_equal(back.col_margins, t.col_margins)
        assert not back.counts.flags.writeable
        with pytest.raises(AttributeError):
            back.n = 7


class TestCoercionByDtype:
    # a signed-integer array skips the integrality and int64-range checks,
    # which cannot fire on it; every other dtype keeps them

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_signed_integers_validate_into_a_copy(self, dtype):
        arr = np.array([[0, 2], [3, np.iinfo(dtype).max - 5]], dtype=dtype)  # total: the max
        t = validate_table(arr)
        assert t.counts.dtype == np.int64
        assert t.counts.tolist() == arr.tolist()
        assert not np.shares_memory(t.counts, arr)
        assert arr.flags.writeable and not t.counts.flags.writeable
        with pytest.raises(NegativeCount, match=re.escape("cell (1,0) is negative: -3")):
            validate_table(np.array([[1, 2], [-3, 4]], dtype=dtype))

    @pytest.mark.parametrize(
        "raw, message",
        [
            (np.array([[1, 2**63]], dtype=np.uint64),
             "cell (0,1) is outside the int64 range: 9223372036854775808"),
            (np.array([[1.0, 2.5]]), "cell (0,1) is not an integer: 2.5"),
            (np.array([[np.inf, 2.0]]), "cell (0,0) is not an integer: inf"),
            (np.array([[1.0, -2.0]]), "cell (0,1) is negative: -2"),
            (np.array([[1.0, 1e19]]), "cell (0,1) is outside the int64 range: 1e+19"),
            (np.array([[True, False]]), "table entries must be integers, got dtype bool"),
            # Python takes True for the int 1, so an object array's bools are
            # refused as a bool array is
            (np.array([[True, False]], dtype=object),
             "table entries must be integers, got dtype bool"),
            (np.array([[1, np.bool_(True)]], dtype=object),
             "table entries must be integers, got dtype bool"),
            # numpy files timedelta64 under the signed integers
            (np.array([[1, 2]], dtype="m8[s]"),
             "table entries must be integers, got dtype timedelta64[s]"),
            (np.array([[1, None]], dtype=object), "table entries must be numeric"),
            (np.array([[1, 2.5]], dtype=object), "cell (0,1) is not an integer: 2.5"),
            (np.array([[1, 2**64]], dtype=object),
             "cell (0,1) is outside the int64 range: 18446744073709551616"),
        ],
    )
    def test_other_dtypes_keep_their_messages(self, raw, message):
        with pytest.raises((DomainError, NegativeCount), match=re.escape(message) + "$"):
            validate_table(raw)

    def test_float16_validates_without_a_warning(self):
        # the int64 range check must not cast 2^63 to float16, where it overflows
        arr = np.array([[1, 2], [3, 65504]], dtype=np.float16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_table(arr).counts.tolist() == [[1, 2], [3, 65504]]

    def test_masked_cells_rejected(self):
        # np.asarray would drop the mask and count the masked cells
        masked = np.ma.array([[1, 2], [3, 4]], mask=[[0, 1], [0, 0]])
        with pytest.raises(DomainError, match=r"table has 1 masked cell\(s\)"):
            validate_table(masked)
        assert validate_table(np.ma.array([[1, 2], [3, 4]])).counts.tolist() == [[1, 2], [3, 4]]


class TestJointDistribution:
    def test_product_detection(self):
        q = np.array([0.3, 0.7])
        r = np.array([0.25, 0.25, 0.5])
        d = JointDistribution(np.outer(q, r))
        assert d.is_product(tol=1e-12)

    def test_non_product(self):
        d = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert not d.is_product(tol=1e-12)

    def test_sum_must_be_one(self):
        with pytest.raises(DomainError):
            JointDistribution([[0.5, 0.4]])

    def test_negative_entry(self):
        with pytest.raises(DomainError):
            JointDistribution([[1.2, -0.2]])
        message = "cell (0,0) probability -0.1 is outside [0, 1]"
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            JointDistribution([[-0.1, 1.1]])

    def test_raw_input_errors_are_domain_errors(self):
        # numpy's own ValueError leaked for ragged and non-numeric input
        with pytest.raises(DomainError, match="distribution must be rectangular"):
            JointDistribution([[0.5], [0.25, 0.25]])
        with pytest.raises(EmptyTable, match="at least one row and one column"):
            JointDistribution([[], []])
        for raw, got in (
            ([["a", "b"]], "dtype <U1"),
            ([["0.5", "0.5"]], "dtype <U3"),
            ([[True, False]], "dtype bool"),
            (np.array([[True, False]], dtype=object), "dtype bool"),
            (np.array([[0.5, np.bool_(False)]], dtype=object), "dtype bool"),
            ([[0.5 + 0j, 0.5]], "dtype complex128"),
            ([[None, 0.5]], "None"),
        ):
            message = f"distribution entries must be real numbers, got {got}"
            with pytest.raises(DomainError, match=re.escape(message) + "$"):
                JointDistribution(raw)
        # integers and exact fractions are real numbers
        assert JointDistribution([[0, 1]]).probs.tolist() == [[0.0, 1.0]]
        exact = JointDistribution([[Fraction(1, 4), Fraction(3, 4)]])
        assert exact.probs.tolist() == [[0.25, 0.75]]

    def test_masked_cells_rejected(self):
        # np.asarray would drop the mask and keep the masked cell's value
        masked = np.ma.array([[0.5, 0.5]], mask=[[True, False]])
        with pytest.raises(DomainError, match=r"distribution has 1 masked cell\(s\)"):
            JointDistribution(masked)
        assert JointDistribution(np.ma.array([[0.5, 0.5]])).probs.tolist() == [[0.5, 0.5]]

    def test_integer_past_the_float_range(self):
        # the cast to float64 raised numpy's OverflowError
        with pytest.raises(DomainError, match="got an integer past the float range$"):
            JointDistribution([[2**1024, 0]])

    @pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, round_trip):
        d = JointDistribution(np.outer([0.3, 0.7], [0.25, 0.25, 0.5]))
        back = round_trip(d)
        np.testing.assert_array_equal(back.probs, d.probs)
        np.testing.assert_array_equal(back.row_margins, d.row_margins)
        np.testing.assert_array_equal(back.col_margins, d.col_margins)
        assert not back.probs.flags.writeable
        with pytest.raises(AttributeError):
            back.probs = None


class TestSharedBody:
    LAW = JointDistribution([[0.125, 0.375], [0.25, 0.25]])
    TABLE = validate_table([[1, 3], [2, 2]])

    def test_neither_class_restates_the_body(self):
        # the frozen body is written once, for tables and laws alike
        shared = {"__setattr__", "__reduce__", "I", "J", "shape", "__repr__"}
        for cls in (ContingencyTable, JointDistribution):
            assert shared.isdisjoint(vars(cls)), cls.__name__

    @pytest.mark.parametrize("which", ["TABLE", "LAW"])
    def test_the_body_serves_both(self, which):
        obj = getattr(self, which)
        name = type(obj).__name__
        assert (obj.I, obj.J, obj.shape) == (2, 2, (2, 2))
        assert repr(obj).startswith(f"{name}([[")
        assert eval(repr(obj), {name: type(obj)}).row_margins.tolist() == obj.row_margins.tolist()
        for arr in (obj.row_margins, obj.col_margins):
            assert not arr.flags.writeable
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            obj.row_margins = None


class TestExpectedCounts:
    def test_one_kernel_for_a_table_and_a_batch(self):
        # the batch path of the classic statistics and expected_counts give
        # the same floats, cell for cell
        rng = np.random.default_rng(11)
        tables = rng.multinomial(1000, np.full(12, 1 / 12), size=5).reshape(5, 3, 4)
        batch = _expected(tables, 1000)
        for t, e in zip(tables, batch):
            assert expected_counts(validate_table(t)).tobytes() == e.tobytes()

    def test_marital_reference_cells(self):
        # Classic row-margin * col-margin / n expectations.
        t = validate_table(MARITAL_COUNTS)
        e = expected_counts(t)
        assert e[0, 0] == pytest.approx(90 * 39 / 300)  # 11.7
        assert e[1, 1] == pytest.approx(150 * 90 / 300)  # 45.0
        assert e[3, 4] == pytest.approx(30 * 33 / 300)  # 3.3

    def test_margins_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(0, 9, size=(3, 4))
            if counts.sum() == 0:
                counts[0, 0] = 1
            t = validate_table(counts)
            e = expected_counts(t)
            np.testing.assert_allclose(e.sum(axis=1), t.row_margins, atol=1e-9)
            np.testing.assert_allclose(e.sum(axis=0), t.col_margins, atol=1e-9)

    def test_zero_margin_row(self):
        t = validate_table([[5, 5], [0, 0]])
        e = expected_counts(t)
        np.testing.assert_allclose(e, [[5.0, 5.0], [0.0, 0.0]])

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            expected_counts(validate_table([[0, 0], [0, 0]]))


class TestSampleTable:
    def test_point_mass(self):
        d = JointDistribution([[0.0, 1.0], [0.0, 0.0]])
        t = sample_table(d, 50, RandomStream(0))
        np.testing.assert_array_equal(t.counts, [[0, 50], [0, 0]])

    def test_total_and_shape(self):
        d = JointDistribution(np.full((3, 3), 1 / 9))
        t = sample_table(d, 77, RandomStream(1))
        assert t.n == 77
        assert t.shape == (3, 3)

    def test_cell_frequencies_uniform(self):
        d = JointDistribution(np.full((2, 2), 0.25))
        t = sample_table(d, 100_000, RandomStream(2))
        np.testing.assert_allclose(t.counts / t.n, 0.25, atol=0.01)

    def test_mean_matches_probabilities(self):
        # Multinomial cell means are n * p; check with 3 sigma slack.
        probs = np.array([[0.05, 0.15], [0.4, 0.4]])
        d = JointDistribution(probs)
        n, reps = 50, 4000
        total = np.zeros((2, 2))
        for i in range(reps):
            total += sample_table(d, n, RandomStream(5, (i,))).counts
        mean = total / reps
        se = np.sqrt(probs * (1 - probs) * n / reps)
        assert np.all(np.abs(mean - n * probs) <= 3 * se + 1e-9)

    def test_reproducible(self):
        d = JointDistribution(np.full((2, 3), 1 / 6))
        a = sample_table(d, 40, RandomStream(9, (4,)))
        b = sample_table(d, 40, RandomStream(9, (4,)))
        assert a == b
        # the same cells as numpy's unsized draw from the same generator
        want = RandomStream(9, (4,)).generator().multinomial(40, d.probs.ravel())
        np.testing.assert_array_equal(a.counts.ravel(), want)

    def test_zero_n(self):
        d = JointDistribution([[1.0]])
        assert sample_table(d, 0, RandomStream(0)).n == 0

    def test_size_must_be_an_integer(self):
        d = JointDistribution(np.full((2, 2), 0.25))
        for n in (100.0, 10.5, "7"):
            with pytest.raises(DomainError, match=re.escape(f"sample size must be an integer, got {n!r}")):
                sample_table(d, n, RandomStream(0))
        with pytest.raises(DomainError, match="sample size must be >= 0, got -1"):
            sample_table(d, -1, RandomStream(0))
        assert sample_table(d, np.int64(100), RandomStream(0)).n == 100

    def test_size_past_the_int64_range_rejected(self):
        # numpy's multinomial sampler raised OverflowError at 2^63
        d = JointDistribution(np.full((2, 2), 0.25))
        for n in (2**63, 2**64):
            with pytest.raises(DomainError, match=rf"sample size must be below 2\^63.*got {n}$"):
                sample_table(d, n, RandomStream(0))
        assert sample_table(d, 2**63 - 1, RandomStream(0)).n == 2**63 - 1


class TestSubsample:
    def test_full_subsample_is_identity(self):
        t = validate_table(MARITAL_COUNTS)
        s = subsample(t, t.n, RandomStream(0))
        assert s == t

    def test_zero_subsample(self):
        t = validate_table([[3, 4], [5, 6]])
        s = subsample(t, 0, RandomStream(0))
        assert s.n == 0
        assert s.shape == t.shape

    def test_too_large(self):
        t = validate_table([[3, 4], [5, 6]])
        with pytest.raises(SubsampleTooLarge):
            subsample(t, 19, RandomStream(0))

    def test_size_must_be_an_integer(self):
        t = validate_table(MARITAL_COUNTS)
        for m in (84.0, 10.5):
            with pytest.raises(DomainError, match=re.escape(f"subsample size must be an integer, got {m!r}")):
                subsample(t, m, RandomStream(0))
        with pytest.raises(DomainError, match="subsample size must be >= 0, got -1"):
            subsample(t, -1, RandomStream(0))

    def test_total_past_hypergeometric_limit_rejected(self):
        big = validate_table([[1_000_000_000, 1], [1, 1]])
        with pytest.raises(DomainError, match="below 10\\^9.*this table has 1000000003"):
            subsample(big, 10, RandomStream(0))
        below = validate_table([[999_999_996, 1], [1, 1]])
        assert subsample(below, 10, RandomStream(0)).n == 10

    def test_cellwise_bounds(self):
        t = validate_table(MARITAL_COUNTS)
        for i in range(30):
            s = subsample(t, 100, RandomStream(1, (i,)))
            assert s.n == 100
            assert np.all(s.counts <= t.counts)
            assert np.all(s.counts >= 0)

    def test_hypergeometric_frequency(self):
        # Subsampling 2 of the 4 observations in diag([2, 2]): the draw keeps
        # the diagonal pattern with probability 1 - 4/C(4,2) = ... both cells
        # one each has probability C(2,1)C(2,1)/C(4,2) = 4/6, all other splits
        # 2/6, so P(some diagonal cell reaches 2) = 1/3.
        t = validate_table([[2, 0], [0, 2]])
        reps = 100_000
        hits = 0
        base = RandomStream(7)
        for i in range(reps):
            s = subsample(t, 2, base.child(i))
            if s.counts[0, 0] == 1 and s.counts[1, 1] == 1:
                hits += 1
        p_hat = hits / reps
        se = np.sqrt((2 / 3) * (1 / 3) / reps)
        assert abs(p_hat - 2 / 3) <= 3 * se

    def test_reproducible(self):
        t = validate_table(MARITAL_COUNTS)
        a = subsample(t, 84, RandomStream(3, (2,)))
        b = subsample(t, 84, RandomStream(3, (2,)))
        assert a == b
        gen = RandomStream(3, (2,)).generator()
        want = gen.multivariate_hypergeometric(t.counts.ravel(), 84, method="marginals")
        np.testing.assert_array_equal(a.counts.ravel(), want)


class TestSparseSamplingMean:
    def test_sparse_corner_cell_mean(self):
        # For the 5x8 sparse null, p_11 = (2^-1 / (1 - 2^-5)) * (2^-1 / (1 - 2^-8))
        # which reduces to 2048/7905; the top-left cell of a sampled table has
        # that mean frequency.
        from usptest.simulate import sparse_family

        d = sparse_family(5, 8, 0.0)
        p11 = d.probs[0, 0]
        assert p11 == pytest.approx(2048 / 7905, abs=1e-15)
        reps, n = 10_000, 20
        total = 0
        for i in range(reps):
            total += sample_table(d, n, RandomStream(21, (i,))).counts[0, 0]
        mean = total / (reps * n)
        se = np.sqrt(p11 * (1 - p11) / (reps * n))
        assert abs(mean - p11) <= 3 * se
