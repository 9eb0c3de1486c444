import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_point
from trigroots.ensemble import CoefficientSample, gaussian, rademacher, sample
from trigroots.polyeval import (
    FULL,
    HALF,
    GridError,
    basis_matrices,
    coefficient_matrices,
    covariance_V,
    eval_grid,
    eval_points,
)


def _manual_sample(y):
    y = np.asarray(y, dtype=float)
    return CoefficientSample(n=y.shape[0], y=y, seed=0, trial_index=0)


def _naive_eval(y, t):
    n = y.shape[0]
    p = q = 0.0
    for i in range(1, n + 1):
        th = i * t / n
        p += y[i - 1, 0] * math.cos(th) + y[i - 1, 1] * math.sin(th)
        q += (i / n) * (-y[i - 1, 0] * math.sin(th) + y[i - 1, 1] * math.cos(th))
    return p / math.sqrt(n), q / math.sqrt(n)


class TestEvalPoint:
    def test_pure_cosine_at_zero(self):
        s = _manual_sample([[1.0, 0.0]])
        p, q = eval_point(s, 0.0)
        assert (p, q) == (1.0, 0.0)

    def test_pure_cosine_at_half_pi(self):
        s = _manual_sample([[1.0, 0.0]])
        p, q = eval_point(s, math.pi / 2)
        assert p == pytest.approx(0.0, abs=1e-15)
        assert q == pytest.approx(-1.0, abs=1e-15)

    def test_matches_naive_loop(self, rng):
        for _ in range(5):
            y = rng.standard_normal((3, 2))
            s = _manual_sample(y)
            t = float(rng.uniform(-3 * math.pi, 3 * math.pi))
            p_ref, q_ref = _naive_eval(y, t)
            p, q = eval_point(s, t)
            assert p == pytest.approx(p_ref, rel=1e-12, abs=1e-14)
            assert q == pytest.approx(q_ref, rel=1e-12, abs=1e-14)

    def test_eval_points_agrees_with_eval_point(self, rng):
        s = sample(gaussian(), 37, seed=9)
        ts = rng.uniform(-37 * math.pi, 37 * math.pi, size=11)
        P, Q = eval_points(s, ts)
        for k, t in enumerate(ts):
            p, q = eval_point(s, t)
            assert P[k] == pytest.approx(p, rel=1e-11, abs=1e-12)
            assert Q[k] == pytest.approx(q, rel=1e-11, abs=1e-12)


class TestEvalGrid:
    def test_spot_check_against_eval_point(self, rng):
        s = sample(gaussian(), 24, seed=2)
        g = eval_grid(s, FULL)
        ks = rng.integers(0, g.M, size=32)
        scale = 1.0 + float(np.max(np.abs(g.P)))
        for k in ks:
            t = g.start + k * g.spacing
            p, q = eval_point(s, t)
            assert abs(g.P[k] - p) / scale <= 1e-10
            assert abs(g.Pprime[k] - q) / scale <= 1e-10

    def test_cosine_has_two_sign_changes(self):
        s = _manual_sample([[1.0, 0.0]])
        g = eval_grid(s, FULL)
        signs = np.sign(g.P)
        changes = int(np.sum(signs * np.roll(signs, -1) < 0))
        assert changes == 2

    def test_zero_sample_gives_zero_grid(self):
        s = _manual_sample(np.zeros((4, 2)))
        g = eval_grid(s, FULL)
        assert not g.P.any() and not g.Pprime.any()

    def test_refuses_small_M(self):
        s = sample(gaussian(), 16, seed=0)
        with pytest.raises(GridError):
            eval_grid(s, FULL, M=64)

    def test_half_window_matches_points(self, rng):
        s = sample(rademacher(), 10, seed=3)
        g = eval_grid(s, HALF)
        assert g.spacing == pytest.approx(10 * math.pi / g.M)
        for k in rng.integers(0, g.M, size=16):
            p, q = eval_point(s, g.start + k * g.spacing)
            assert g.P[k] == pytest.approx(p, abs=1e-11)
            assert g.Pprime[k] == pytest.approx(q, abs=1e-11)

    def test_fft_vs_direct_equivalence_100_tuples(self, rng):
        # oversampled grids at many (n, window, M) against the direct path
        for _ in range(100):
            n = int(rng.integers(1, 65))
            window = FULL if rng.integers(2) else HALF
            M = 16 * n * int(rng.integers(1, 3))
            s = sample(gaussian(), n, seed=int(rng.integers(2**31)))
            g = eval_grid(s, window, M=M)
            ks = rng.integers(0, M, size=8)
            ts = g.start + ks * g.spacing
            P, _ = eval_points(s, ts)
            bound = 1e-9 * (1.0 + float(np.max(np.abs(g.P))))
            assert np.max(np.abs(g.P[ks] - P)) <= bound

    def test_derivative_by_finite_differences_with_richardson(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 40))
            s = sample(gaussian(), n, seed=int(rng.integers(2**31)))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            _, q = eval_point(s, t)

            def fd(h):
                p1, _ = eval_point(s, t + h)
                p0, _ = eval_point(s, t - h)
                return (p1 - p0) / (2 * h)

            e1 = abs(fd(1e-3) - q)
            e2 = abs(fd(5e-4) - q)
            # second-order error: quartering plus rounding slack
            assert e2 <= e1 / 3.0 + 1e-9


class TestBasisVectors:
    # rows of basis_matrices are u_i(t), u_i'(t); coefficient_matrices
    # stacks them as the columns of C_n(i)
    def test_phases_vanish_at_zero(self):
        U, Up = basis_matrices(5, 0.0)
        np.testing.assert_allclose(U, np.column_stack([np.ones(5), np.zeros(5)]))
        np.testing.assert_allclose(Up, np.column_stack([np.zeros(5), np.arange(1, 6) / 5]))

    @given(n=st.integers(1, 200), tt=st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_pythagorean_identity(self, n, tt):
        U, Up = basis_matrices(n, tt)
        total = np.sum(U * U, axis=1) + np.sum(Up * Up, axis=1)
        w = np.arange(1, n + 1) / n
        np.testing.assert_allclose(total, 1.0 + w * w, rtol=1e-12)

    def test_concatenation_order_t_block_first(self):
        C = coefficient_matrices(7, 1.1, s=2.2)
        np.testing.assert_allclose(C[:, :2, :], coefficient_matrices(7, 1.1))
        np.testing.assert_allclose(C[:, 2:, :], coefficient_matrices(7, 2.2))
        U, Up = basis_matrices(7, 2.2)
        np.testing.assert_allclose(C[:, 2:, 0], U)
        np.testing.assert_allclose(C[:, 2:, 1], Up)


class TestCovariance:
    def test_exact_diagonal_at_n100(self):
        V = covariance_V(100, 0.0)
        # sum of (i/n)^2 has the closed form (n+1)(2n+1)/(6 n^2)
        np.testing.assert_allclose(
            V.entries, np.diag([1.0, 101 * 201 / 60000.0]), atol=1e-12)

    def test_limit_diagonal_large_n(self):
        n = 100000
        t = math.pi * n * (math.sqrt(2) - 1)
        V = covariance_V(n, t)
        assert np.linalg.norm(V.entries - np.diag([1.0, 1 / 3]), 2) <= 1e-2

    def test_four_dim_structure(self, rng):
        n = 500
        t, s = 123.456, -77.1
        V = covariance_V(n, t, s).entries
        assert V.shape == (4, 4)
        np.testing.assert_allclose(V, V.T, atol=1e-12)
        assert np.linalg.eigvalsh(V).min() >= -1e-10

    def test_entries_bounded_and_trace(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 300))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            V = covariance_V(n, t).entries
            assert np.max(np.abs(V)) <= 1.0 + 1e-12
            assert 1.0 <= np.trace(V) <= 2.0
