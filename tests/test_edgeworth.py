import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermeval

from trigroots.edgeworth import (
    H_alpha,
    _moment_stack,
    _scalar_moments,
    c_n_alpha,
    gamma_terms,
    gauss_expect_psi_H,
    hermite,
)
from trigroots.ensemble import discrete, gaussian, rademacher, uniform

MIXED_CLASSES = [(1, 3), (1, 4), (2, 3), (2, 4)]

#: laws with their fourth moments m4, written out rather than computed
LAWS_M4 = [(rademacher(), 1.0), (uniform(), 9 / 5),
           (discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)]), 4.0)]

#: limits of c_n on a mixed (i,i,j,j) class, consistent with the aggregate
#: kurtosis coefficient 1/15 (see test_aggregate_kurtosis_coefficient)
CONSISTENT_CLASS_LIMIT = {
    (i, j): 3.0 ** (i + j - 4) / (2.0 * (2 * (i + j) - 7))
    for i, j in MIXED_CLASSES
}


class TestHermite:
    def test_h2_at_zero(self):
        assert hermite(2, 0.0) == -1.0

    def test_h3_closed_form(self):
        assert hermite(3, 2.0) == 2.0  # x^3 - 3x at 2

    @given(k=st.integers(0, 8), x=st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_hermite_e(self, k, x):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        assert hermite(k, x) == pytest.approx(hermeval(x, coeffs),
                                              rel=1e-10, abs=1e-10)

    def test_gauss_hermite_orthogonality(self):
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        x = nodes * math.sqrt(2.0)
        for j in range(7):
            for k in range(7):
                val = float(np.sum(weights * hermite(j, x) * hermite(k, x)))
                val /= math.sqrt(math.pi)
                target = math.factorial(k) if j == k else 0.0
                assert abs(val - target) < 1e-10


class TestHAlpha:
    def test_all_mass_on_one_coordinate(self, rng):
        a, b = rng.standard_normal(2)
        assert H_alpha((1, 1, 1), np.array([a, b])) == pytest.approx(a**3 - 3 * a)

    def test_pair(self, rng):
        a, b = rng.standard_normal(2)
        assert H_alpha((1, 2), np.array([a, b])) == pytest.approx(a * b)

    def test_permutation_invariance(self, rng):
        x = rng.standard_normal(4)
        assert H_alpha((1, 3, 1, 3), x) == pytest.approx(H_alpha((1, 1, 3, 3), x))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            H_alpha((0, 1), np.zeros(2))


def moment_EXalpha(C, dist, alpha):
    """E prod_j (C Y)_{alpha_j} for one matrix C, through the stacked
    expansion that ``c_n_alpha`` averages."""
    return float(_moment_stack(np.asarray(C, dtype=float)[None], _scalar_moments(dist),
                               alpha)[0])


class TestMomentExpansion:
    def test_identity_padded_pure_fourth(self):
        C = np.zeros((4, 2))
        C[0, 0] = 1.0
        assert moment_EXalpha(C, rademacher(), (1, 1, 1, 1)) == pytest.approx(1.0)
        assert moment_EXalpha(C, gaussian(), (1, 1, 1, 1)) == pytest.approx(3.0)

    def test_odd_order_vanishes_for_symmetric(self, rng):
        C = rng.standard_normal((4, 2))
        for dist in (gaussian(), rademacher(), uniform()):
            assert moment_EXalpha(C, dist, (1, 2, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_against_monte_carlo(self, rng):
        C = rng.standard_normal((4, 2))
        draws = 10**6
        for dist in (gaussian(), rademacher()):
            from trigroots.ensemble import _draw
            y = _draw(dist, np.random.default_rng(5), (draws, 2))
            X = y @ C.T
            for alpha in ((1, 1, 3, 3), (2, 2, 4, 4), (1, 2, 3, 4)):
                idx = [a - 1 for a in alpha]
                emp = np.prod([X[:, i] for i in idx], axis=0)
                se = emp.std() / math.sqrt(draws)
                exact = moment_EXalpha(C, dist, alpha)
                assert abs(emp.mean() - exact) <= 5 * se + 1e-12


def _cn_finite_sum(n, t, s, i, j, m4):
    """c_n(i,i,j,j) at finite n from the fourth cumulant of the increments.

    With rows (cos, sin) and sqrt(3)(k/n)(-sin, cos) after the lambda
    scaling, (m4 - 3) sum_l C_il^2 C_jl^2 is the only non-Gaussian part of
    E X^alpha, and it reduces to the double-angle sum below.
    """
    m = (i - 1) + (j - 3)
    sign = (-1) ** (i + j)
    terms = [(k / n) ** (2 * m)
             * (1.0 + sign * math.cos(2 * k * t / n) * math.cos(2 * k * s / n)) / 2.0
             for k in range(1, n + 1)]
    return (m4 - 3.0) * 3.0 ** m * math.fsum(terms) / n


class TestCnAlpha:
    def test_gaussian_vanishes_identically(self):
        n = 200
        for alpha in ((1, 1, 1), (1, 2, 2), (1, 1, 2, 2), (1, 1, 1, 1)):
            v = c_n_alpha(n, 17.3, gaussian(), alpha)
            assert v == pytest.approx(0.0, abs=1e-14)

    def test_permutation_invariance(self, rng):
        n = 400
        t, s = 100.0, -55.5
        base = (1, 1, 3, 4)
        ref = c_n_alpha(n, t, rademacher(), base, s=s)
        for alpha in set(permutations(base)):
            assert c_n_alpha(n, t, rademacher(), alpha, s=s) == \
                pytest.approx(ref, abs=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            c_n_alpha(10, 1.0, rademacher(), (1, 1))

    def test_odd_order_zero_for_symmetric_laws(self):
        n = 300
        for alpha in product((1, 2, 3, 4), repeat=3):
            v = c_n_alpha(n, 7.7, rademacher(), alpha, s=3.3)
            assert v == pytest.approx(0.0, abs=1e-13)

    def test_mixed_class_limits(self):
        # the empirical limits of the scaled moment-delta averages; these
        # are the values that assemble into the 1/15 aggregate below
        n = 100000
        t = math.pi * (math.sqrt(2) - 1) * n
        s = math.pi * (math.sqrt(3) - 1) * n
        for dist, m4 in ((rademacher(), 1.0), (uniform(), 9 / 5)):
            for (i, j) in MIXED_CLASSES:
                v = c_n_alpha(n, t, dist, (i, i, j, j), s=s)
                target = CONSISTENT_CLASS_LIMIT[(i, j)] * (m4 - 3.0)
                assert v == pytest.approx(target, abs=1e-2), (dist.kind, i, j)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    def test_matches_finite_cumulant_sum(self, n):
        points = [(math.pi * (math.sqrt(2) - 1) * n, math.pi * (math.sqrt(3) - 1) * n),
                  (0.7, -2.3)]
        for t, s in points:
            for dist, m4 in LAWS_M4:
                for (i, j) in MIXED_CLASSES:
                    v = c_n_alpha(n, t, dist, (i, i, j, j), s=s)
                    exact = _cn_finite_sum(n, t, s, i, j, m4)
                    assert abs(v - exact) <= 1e-12, (n, t, dist.kind, i, j)

    def test_mixed_order3_decays(self):
        n = 100000
        t = math.pi * (math.sqrt(2) - 1) * n
        s = math.pi * (math.sqrt(3) - 1) * n
        heavy = __import__("trigroots.ensemble", fromlist=["discrete"]).discrete(
            [(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])
        for alpha in ((1, 1, 3), (2, 2, 3), (1, 3, 3), (2, 4, 4)):
            v = c_n_alpha(n, t, heavy, alpha, s=s)
            assert abs(v) <= 5e-2


class TestGammaTerms:
    def test_gaussian_correctors_vanish(self):
        terms = gamma_terms(100, 13.0, gaussian(), np.array([0.3, -0.2]))
        assert terms.gamma1 == pytest.approx(0.0, abs=1e-13)
        assert terms.gamma2 == pytest.approx(0.0, abs=1e-13)
        assert terms.q_n2 == pytest.approx(1.0, abs=1e-13)

    def test_symmetric_law_kills_gamma1_and_double_prime(self, rng):
        x = rng.standard_normal(2)
        terms = gamma_terms(150, 23.0, rademacher(), x)
        assert terms.gamma1 == pytest.approx(0.0, abs=1e-13)
        assert terms.gamma2_doubleprime == pytest.approx(0.0, abs=1e-13)
        assert terms.gamma2 == pytest.approx(terms.gamma2_prime, abs=1e-13)

    def test_q_assembly_identity(self, rng):
        n = 120
        x = rng.standard_normal(2)
        terms = gamma_terms(n, 9.0, rademacher(), x)
        expected = 1.0 + terms.gamma1 / math.sqrt(n) + terms.gamma2 / n
        assert terms.q_n2 == pytest.approx(expected, rel=1e-14)
        assert terms.q_n2_at(x) == pytest.approx(terms.q_n2, rel=1e-12)

    def test_q_integrates_to_one(self):
        # E H_alpha(W) = 0 for |alpha| >= 1, so the Gaussian mean of Q is 1;
        # checked through 64-node Gauss-Hermite product quadrature
        terms = gamma_terms(80, 11.0, rademacher(), np.zeros(2))
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        x = nodes * math.sqrt(2.0)
        total = 0.0
        for wi, xi in zip(weights, x):
            for wj, xj in zip(weights, x):
                total += wi * wj * terms.q_n2_at(np.array([xi, xj]))
        total /= math.pi
        assert total == pytest.approx(1.0, abs=1e-10)


class TestGaussExpectPsiH:
    def test_class_limits(self):
        for (i, j) in MIXED_CLASSES:
            v = gauss_expect_psi_H((i, i, j, j), delta=None)
            target = (1 / (3 * math.pi**2)) * (-1) ** (i + j)
            assert v == pytest.approx(target, abs=1e-3)

    def test_odd_multiplicity_exactly_zero(self):
        assert gauss_expect_psi_H((1, 1, 1, 3), delta=0.1) == 0.0
        assert gauss_expect_psi_H((1, 2, 3), delta=None) == 0.0

    def test_small_delta_converges_to_limit(self):
        limit = gauss_expect_psi_H((1, 1, 3, 3), delta=None)
        d1 = gauss_expect_psi_H((1, 1, 3, 3), delta=0.1)
        d2 = gauss_expect_psi_H((1, 1, 3, 3), delta=0.01)
        assert abs(d2 - limit) < abs(d1 - limit)

    def test_matches_4d_monte_carlo_at_finite_delta(self):
        delta = 0.1
        lam = np.array([1.0, 1 / 3, 1.0, 1 / 3])
        rng = np.random.default_rng(17)
        W = rng.standard_normal((4_000_000, 4))
        Z = W * np.sqrt(lam)
        alpha = (1, 1, 3, 3)
        kern = (np.abs(Z[:, 1]) * np.abs(Z[:, 3])
                * (np.abs(Z[:, 0]) < delta) * (np.abs(Z[:, 2]) < delta)
                / (2 * delta) ** 2)
        h = (W[:, 0] ** 2 - 1) * (W[:, 2] ** 2 - 1)
        vals = kern * h
        se = vals.std() / math.sqrt(len(vals))
        exact = gauss_expect_psi_H(alpha, delta=delta)
        assert abs(vals.mean() - exact) <= 5 * se


class TestAggregate:
    def test_aggregate_kurtosis_coefficient(self):
        # assembling the class limits of c_n with the kernel functionals
        # over the ordered mixed tuples must reproduce the 1/15 coefficient
        # of the excess kurtosis in the variance slope
        n = 100000
        t = math.pi * (math.sqrt(2) - 1) * n
        s = math.pi * (math.sqrt(3) - 1) * n
        for dist, m4 in ((rademacher(), 1.0), (uniform(), 9 / 5)):
            total = 0.0
            for (i, j) in MIXED_CLASSES:
                orderings = len(set(permutations((i, i, j, j))))
                cn = c_n_alpha(n, t, dist, (i, i, j, j), s=s)
                psi = gauss_expect_psi_H((i, i, j, j), delta=None)
                total += orderings * cn * psi
            aggregate = 2 * math.pi**2 * total / 24.0
            assert aggregate == pytest.approx((m4 - 3.0) / 15.0, abs=2e-4)

