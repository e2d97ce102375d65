import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from samvh.expfam import (
    DomainError,
    Family,
    NonFiniteError,
    log_partition,
    mean,
    sample,
    sample_from_mean,
    sigmoid,
    suff_stat,
)

# Frozen with 50-digit arithmetic: log(1 + e^30), 1/(1+e^-2), 1/(1+e^-0.5).
LOG1P_EXP_30 = 30.000000000000093576229688397367793776974246751577
SIGMOID_2 = 0.88079707797788244405972914130239679520638429862897
SIGMOID_HALF = 0.62245933120185456463890056574550847875327936530891


class TestSuffStat:
    def test_identity_bernoulli(self):
        assert suff_stat(Family.BERNOULLI, 1) == 1.0
        assert suff_stat(Family.BERNOULLI, 0) == 0.0

    def test_identity_gaussian(self):
        assert suff_stat(Family.GAUSSIAN_UNIT_VARIANCE, -2.5) == -2.5

    def test_bernoulli_domain(self):
        with pytest.raises(DomainError):
            suff_stat(Family.BERNOULLI, 0.5)


class TestLogPartition:
    def test_symmetric_case(self):
        assert log_partition(Family.BERNOULLI, 0.0) == pytest.approx(math.log(2))

    def test_gaussian_zero(self):
        assert log_partition(Family.GAUSSIAN_UNIT_VARIANCE, 0.0) == 0.0

    def test_large_eta_extended_precision(self):
        assert abs(log_partition(Family.BERNOULLI, 30.0) - LOG1P_EXP_30) < 1e-9

    def test_stable_at_700(self):
        assert log_partition(Family.BERNOULLI, 700.0) == pytest.approx(700.0)
        assert math.isfinite(log_partition(Family.BERNOULLI, -700.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            log_partition(Family.BERNOULLI, float("inf"))
        with pytest.raises(ValueError):
            mean(Family.GAUSSIAN_UNIT_VARIANCE, float("nan"))


class TestMean:
    def test_sigmoid_at_zero(self):
        assert mean(Family.BERNOULLI, 0.0) == 0.5

    def test_gaussian_identity(self):
        assert mean(Family.GAUSSIAN_UNIT_VARIANCE, 1.3) == 1.3

    def test_sigmoid_value(self):
        assert mean(Family.BERNOULLI, 2.0) == pytest.approx(SIGMOID_2, abs=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_mean_is_derivative_of_log_partition(family):
    rng = np.random.default_rng(7)
    h = 1e-5
    for eta in rng.uniform(-10, 10, size=100):
        fd = (log_partition(family, eta + h) - log_partition(family, eta - h)) / (2 * h)
        m = mean(family, eta)
        assert abs(m - fd) <= 1e-6 * max(1.0, abs(m))


@pytest.mark.parametrize("family", list(Family))
@settings(max_examples=200, deadline=None)
@given(eta1=st.floats(-10, 10), eta2=st.floats(-10, 10))
def test_log_partition_convex(family, eta1, eta2):
    mid = log_partition(family, (eta1 + eta2) / 2)
    avg = (log_partition(family, eta1) + log_partition(family, eta2)) / 2
    assert mid <= avg + 1e-12


class TestSample:
    def test_saturated(self, rng):
        assert sample(Family.BERNOULLI, 1e9, rng) == 1.0
        assert sample(Family.BERNOULLI, -1e9, rng) == 0.0

    def test_empirical_mean(self, rng):
        draws = sample(Family.BERNOULLI, np.full(10 ** 5, 0.5), rng)
        assert abs(draws.mean() - SIGMOID_HALF) < 0.01

    def test_deterministic_given_state(self):
        a = sample(Family.BERNOULLI, np.zeros(100), np.random.default_rng(3))
        b = sample(Family.BERNOULLI, np.zeros(100), np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_bernoulli_distribution_ztest(self, rng):
        # Two-sided z-test at significance 1e-3 (z* ~ 3.29).
        n, eta = 10 ** 5, 0.7
        p = mean(Family.BERNOULLI, eta)
        draws = sample(Family.BERNOULLI, np.full(n, eta), rng)
        z = (draws.sum() - n * p) / math.sqrt(n * p * (1 - p))
        assert abs(z) < 3.29

    def test_gaussian_distribution_ztest(self, rng):
        n, eta = 10 ** 5, -1.2
        draws = sample(Family.GAUSSIAN_UNIT_VARIANCE, np.full(n, eta), rng)
        z_mean = (draws.mean() - eta) * math.sqrt(n)
        # Sample variance of a unit Gaussian: var of estimator ~ 2/n.
        z_var = (draws.var() - 1.0) / math.sqrt(2.0 / n)
        assert abs(z_mean) < 3.29
        assert abs(z_var) < 3.29


ETAS = [0.3, -2.0, np.linspace(-3.0, 3.0, 12).reshape(3, 4)]


@pytest.mark.parametrize("eta", ETAS, ids=["scalar", "negative_scalar", "array"])
@pytest.mark.parametrize("family", list(Family))
def test_sample_is_draw_from_mean(family, eta):
    # Same values, bit for bit, and the same rng state after the draw.
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    got = sample(family, eta, rng_a)
    want = sample_from_mean(family, np.asarray(mean(family, eta)), rng_b)
    assert np.array_equal(got, want)
    assert isinstance(got, float) == np.isscalar(eta)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", list(Family))
def test_sample_and_mean_reject_non_finite(family, bad):
    for eta in (bad, np.array([0.0, bad])):
        with pytest.raises(NonFiniteError):
            mean(family, eta)
        with pytest.raises(NonFiniteError):
            sample(family, eta, np.random.default_rng(0))


@pytest.mark.parametrize("family", list(Family))
def test_mean_into_out(family):
    eta = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    want = mean(family, eta)
    assert not np.shares_memory(want, eta)
    buf = np.empty_like(eta)
    assert mean(family, eta, out=buf) is buf
    assert np.array_equal(buf, want)
    inplace = eta.copy()
    assert mean(family, inplace, out=inplace) is inplace
    assert np.array_equal(inplace, want)


@pytest.mark.parametrize("family", list(Family))
def test_float32_mean_and_draws_keep_the_dtype_and_the_stream(family):
    # A float32 mean draws float32 values from the float64 uniforms and
    # normals that a float64 mean takes, leaving the rng in the same state.
    eta = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    mu32, mu64 = mean(family, eta.astype(np.float32)), mean(family, eta)
    assert mu32.dtype == np.float32
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    got, want = sample_from_mean(family, mu32, rng_a), sample_from_mean(family, mu64, rng_b)
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    np.testing.assert_allclose(got, want, rtol=1e-6)


class TestSigmoid:
    X = np.linspace(-800.0, 800.0, 320_001)

    def test_float32_in_float32_out(self):
        # Within 4 float32 ulps of expit down to the smallest normal float32;
        # below it exp(-x) overflows in float32, and the result is 0 or subnormal.
        x = self.X.astype(np.float32)
        got, want = sigmoid(x), expit(x.astype(np.float64))
        assert got.dtype == np.float32 and sigmoid(np.float32(2.0)).dtype == np.float32
        tiny = np.finfo(np.float32).tiny
        normal = want >= tiny
        ulp = np.spacing(want[normal].astype(np.float32))
        assert np.all(np.abs(got[normal] - want[normal]) <= 4 * ulp)
        assert np.all(got[~normal] < tiny)

    def test_within_4_ulp_of_expit(self):
        got, want = sigmoid(self.X), expit(self.X)
        # The spacing of the smallest normal bounds the ulp of subnormals.
        ulp = np.spacing(np.maximum(want, np.finfo(float).tiny))
        assert np.all(np.abs(got - want) <= 4 * ulp)

    def test_exact_zero_and_one_where_expit_gives_them(self):
        got, want = sigmoid(self.X), expit(self.X)
        for value in (0.0, 1.0):
            assert np.any(want == value)
            assert np.array_equal(got == value, want == value)

    @pytest.mark.parametrize("x", [0.5, -3, np.float64(2.0), np.array(-0.25)],
                             ids=["float", "int", "numpy_scalar", "0d_array"])
    def test_scalars_and_0d_arrays(self, x):
        got = sigmoid(x)
        assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.float64
        assert abs(float(got) - expit(x)) <= 4 * np.spacing(expit(x))

    def test_bernoulli_mean_of_0d_array_is_float(self):
        assert mean(Family.BERNOULLI, np.array(0.0)) == 0.5
        assert isinstance(mean(Family.BERNOULLI, np.array(0.0)), float)

    def test_out_aliases_x(self):
        x = np.linspace(-5.0, 5.0, 11)
        want = sigmoid(x)
        assert not np.shares_memory(want, x)
        assert sigmoid(x, out=x) is x
        assert np.array_equal(x, want)

    def test_no_warning_at_huge_arguments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(np.array([1e9, -1e9]))
            assert float(sigmoid(-1e9)) == 0.0 and float(sigmoid(1e9)) == 1.0
        assert list(got) == [1.0, 0.0]
