import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trigroots.ensemble import (
    DistributionError,
    discrete,
    gaussian,
    moments,
    parse_distribution,
    rademacher,
    sample,
    uniform,
    charfn_scalar,
    xi_norm_sq,
)
from oracles import xi_norm_sq_quadrature

ALL_DISTS = [gaussian(), rademacher(), uniform(),
             discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])]


class TestMoments:
    def test_gaussian(self):
        m = moments(gaussian())
        assert (m.m3, m.m4, m.excess_kurtosis) == (0.0, 3.0, 0.0)

    def test_rademacher(self):
        m = moments(rademacher())
        assert (m.m3, m.m4, m.excess_kurtosis) == (0.0, 1.0, -2.0)

    def test_uniform_fourth_moment_against_quadrature(self):
        # independent oracle: integrate x^4 against the uniform density
        val, _ = quad(lambda x: x**4 / (2 * math.sqrt(3)),
                      -math.sqrt(3), math.sqrt(3))
        assert val == pytest.approx(9 / 5, abs=1e-12)
        m = moments(uniform())
        assert m.m4 == pytest.approx(9 / 5, abs=1e-15)
        assert m.excess_kurtosis == pytest.approx(-6 / 5, abs=1e-15)

    def test_discrete_moments_are_atom_sums(self):
        d = discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])
        m = moments(d)
        assert m.m3 == pytest.approx(0.0, abs=1e-15)
        assert m.m4 == pytest.approx(16 * 0.125 * 2, abs=1e-15)

    def test_monte_carlo_moments_within_5_se(self):
        n_draws = 10**6
        for dist in ALL_DISTS:
            s = sample(dist, n_draws // 2, seed=123, trial_index=0)
            x = s.y.ravel()
            prof = moments(dist)
            for k, target in ((3, prof.m3), (4, prof.m4)):
                emp = np.mean(x**k)
                se = np.std(x**k) / math.sqrt(x.size)
                assert abs(emp - target) <= 5 * se + 1e-12, (dist.kind, k)


class TestValidation:
    def test_bad_probability_sum(self):
        with pytest.raises(DistributionError):
            discrete([(1.0, 0.6), (-1.0, 0.5)])

    def test_nonzero_mean(self):
        with pytest.raises(DistributionError):
            discrete([(0.5, 0.5), (1.5, 0.5)])

    def test_wrong_variance(self):
        with pytest.raises(DistributionError):
            discrete([(2.0, 0.5), (-2.0, 0.5)])

    def test_negative_probability(self):
        with pytest.raises(DistributionError):
            discrete([(1.0, 1.5), (-1.0, -0.5)])

    def test_parse_roundtrip(self):
        for text in ("gaussian", "rademacher", "uniform",
                     "discrete:-1.0:0.5,1.0:0.5"):
            d = parse_distribution(text)
            assert parse_distribution(d.label()) == d

    def test_parse_garbage(self):
        with pytest.raises(DistributionError):
            parse_distribution("cauchy")


class TestSampling:
    def test_rademacher_support(self):
        s = sample(rademacher(), 200, seed=1)
        assert set(np.unique(s.y)) <= {-1.0, 1.0}

    def test_deterministic_replay(self):
        a = sample(gaussian(), 50, seed=42, trial_index=7)
        b = sample(gaussian(), 50, seed=42, trial_index=7)
        assert np.array_equal(a.y, b.y)

    def test_trials_differ(self):
        a = sample(gaussian(), 50, seed=42, trial_index=7)
        b = sample(gaussian(), 50, seed=42, trial_index=8)
        assert not np.array_equal(a.y, b.y)

    def test_gaussian_clt_bounds(self):
        n = 10**5
        s = sample(gaussian(), n, seed=5)
        x = s.y.ravel()
        assert abs(x.mean()) <= 4 / math.sqrt(2 * n)
        assert abs(x.var() - 1.0) <= 4 * math.sqrt(2 / (2 * n))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(gaussian(), 0, seed=1)


class TestCharfn:
    def test_rademacher_at_pi(self):
        assert charfn_scalar(rademacher(), math.pi) == pytest.approx(-1.0)

    def test_normalization_at_zero(self):
        for dist in ALL_DISTS:
            assert charfn_scalar(dist, 0.0) == pytest.approx(1.0)

    def test_gaussian_at_one(self):
        assert charfn_scalar(gaussian(), 1.0) == pytest.approx(math.exp(-0.5))

    @given(theta=st.floats(-50.0, 50.0), idx=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_modulus_and_conjugate_symmetry(self, theta, idx):
        dist = ALL_DISTS[idx]
        v = charfn_scalar(dist, theta)
        assert abs(v) <= 1.0 + 1e-12
        assert charfn_scalar(dist, -theta) == pytest.approx(np.conj(v), abs=1e-12)


class TestXiNorm:
    def test_rademacher_half(self):
        # two-point law: value is ||2w||^2 / 2
        assert xi_norm_sq(rademacher(), 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_rademacher_quarter(self):
        assert xi_norm_sq(rademacher(), 0.25) == pytest.approx(1 / 8, abs=1e-15)

    def test_zero_argument(self):
        for dist in ALL_DISTS:
            assert xi_norm_sq(dist, 0.0) == 0.0

    def test_rademacher_periodicity(self):
        # ||2w||^2/2 has period 1/2 in w
        w = np.linspace(-1.0, 1.0, 41)
        a = xi_norm_sq(rademacher(), w)
        b = xi_norm_sq(rademacher(), w + 0.5)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_integer_valued_discrete_periodicity(self):
        # integer-valued atoms make the differences integers: period 1 in w
        d = discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])
        w = np.linspace(-1.0, 1.0, 37)
        np.testing.assert_allclose(xi_norm_sq(d, w), xi_norm_sq(d, w + 1.0),
                                   atol=1e-13)

    @pytest.mark.parametrize("dist", [gaussian(), uniform()],
                             ids=["gaussian", "uniform"])
    @pytest.mark.parametrize("w", [0.01, 0.13, 0.37, 1.0, 2.7, 11.0])
    def test_continuous_matches_quadrature_oracle(self, dist, w):
        fast = xi_norm_sq(dist, w)
        slow = xi_norm_sq_quadrature(dist, w)
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_vectorized_matches_scalar(self, rng):
        w = rng.uniform(-3, 3, size=20)
        for dist in ALL_DISTS:
            vec = xi_norm_sq(dist, w)
            ref = np.array([xi_norm_sq(dist, float(x)) for x in w])
            np.testing.assert_allclose(vec, ref, rtol=1e-12, atol=1e-15)

    def test_large_w_approaches_uniform_mean(self):
        # a widely spread w(xi1-xi2) has mean squared distance ~ 1/12
        assert xi_norm_sq(gaussian(), 200.0) == pytest.approx(1 / 12, abs=1e-6)
