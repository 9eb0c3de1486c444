import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_point
from trigroots.charprobe import _point_rows, exponent_bound, log_abs_charfn
from trigroots.edgeworth import c_n_alpha
from trigroots.ensemble import CoefficientSample, gaussian, rademacher, sample
from trigroots.polyeval import (
    GridError,
    cell_expansions,
    coefficient_columns,
    coefficient_matrices,
    covariance_V,
    eval_grid,
    eval_grid_batch,
    eval_points,
    grid_spacing,
    taylor_eval,
)
from trigroots.rootcount import _scan

#: keeps the test ids of the cases that once also ran on the half window
FULL_ID = pytest.mark.parametrize((), [()], ids=["full"])


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

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 1024])
    def test_eval_points_at_block_edges(self, n):
        # blocks of min(32, n) terms: one block of 1, 31 or 32 terms, a
        # second block holding one term and 31 zeros, and 32 full blocks
        s = sample(gaussian(), n, seed=n + 3)
        g = eval_grid(s)
        ts = np.concatenate([TestLocalEvaluator._points(g),
                             np.random.default_rng(n).uniform(-n * math.pi, n * math.pi, 40)])
        P, Q = eval_points(s, ts)
        oracle = np.array([eval_point(s, t) for t in ts])
        bound = max(1e-14, 1e-15 * n) * float(np.max(np.abs(g.P)))
        assert np.max(np.abs(P - oracle[:, 0])) <= bound
        assert np.max(np.abs(Q - oracle[:, 1])) <= bound


class TestEvalGrid:
    def test_spot_check_against_eval_point(self, rng):
        s = sample(gaussian(), 24, seed=2)
        g = eval_grid(s)
        ks = rng.integers(0, g.M, size=32)
        scale = 1.0 + float(np.max(np.abs(g.P)))
        for k in ks:
            t = g.start + k * g.spacing
            p, q = eval_point(s, t)
            assert abs(g.P[k] - p) / scale <= 1e-10
            assert abs(g.Pprime[k] - q) / scale <= 1e-10

    def test_cosine_has_two_sign_changes(self):
        s = _manual_sample([[1.0, 0.0]])
        g = eval_grid(s)
        signs = np.sign(g.P)
        changes = int(np.sum(signs * np.roll(signs, -1) < 0))
        assert changes == 2

    def test_zero_sample_gives_zero_grid(self):
        s = _manual_sample(np.zeros((4, 2)))
        g = eval_grid(s)
        assert not g.P.any() and not g.Pprime.any()

    def test_refuses_small_M(self):
        s = sample(gaussian(), 16, seed=0)
        with pytest.raises(GridError):
            eval_grid(s, M=64)

    @pytest.mark.parametrize("M", [200.0, True, np.float64(512)])
    def test_refuses_non_integer_M(self, M):
        s = sample(gaussian(), 16, seed=0)
        with pytest.raises(ValueError, match="M must be an integer"):
            eval_grid(s, M=M)
        with pytest.raises(ValueError, match="M must be an integer"):
            eval_grid_batch(s.y[None], 16, M)

    def test_fft_vs_direct_equivalence_100_tuples(self, rng):
        # oversampled grids at many (n, M) against the direct path
        for _ in range(100):
            n = int(rng.integers(1, 65))
            M = 16 * n * int(rng.integers(1, 3))
            s = sample(gaussian(), n, seed=int(rng.integers(2**31)))
            g = eval_grid(s, M=M)
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

    DERIVS_DIGEST = "fe1b00d4b6f7855b7c4b204de244be4ef0662bda47974aa63f55ece69edba137"

    def test_derivative_stack_is_pinned(self):
        """``derivs`` bytes of the one-FFT stack, pinned by a sha256 of the
        stacks as they were when each pair of orders had an FFT call of its
        own."""
        digest = hashlib.sha256()
        for law in (gaussian(), rademacher()):
            for n in (1, 2, 7, 16, 64, 256, 1024):
                for t in range(5):
                    g = eval_grid(sample(law, n, seed=600 + n, trial_index=t))
                    assert g.derivs.shape == (g.M, 12)
                    digest.update(g.derivs.tobytes())
        assert digest.hexdigest() == self.DERIVS_DIGEST

class TestLocalEvaluator:
    """``EvaluationGrid.eval_local`` (Taylor series at the nearest node)
    against the exact ``eval_points`` and the compensated oracle."""

    @staticmethod
    def _points(g):
        n, h = g.n, g.spacing
        nodes = g.start + h * np.array([0, 1, g.M // 3, g.M - 1])
        mids = g.start + h * np.array([0.5, g.M // 2 + 0.5, g.M - 0.5])
        far = np.array([n * math.pi, -n * math.pi, n * math.pi - 1e-9 * n,
                        -n * math.pi + 0.49 * h])
        end = g.start + g.M * h
        outside = np.array([g.start - 0.3 * h, g.start - 2.5 * h, end + 0.4 * h, end + 3.5 * h])
        return np.concatenate([nodes, mids, far, outside])

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 1024, 10_000])
    @FULL_ID
    @pytest.mark.parametrize("oversample", [1, 2])
    def test_matches_exact_evaluators(self, n, oversample):
        s = sample(gaussian(), n, seed=n + 7)
        g = eval_grid(s, M=16 * n * oversample)
        ts = self._points(g)
        p, q = g.eval_local(ts)
        p_ref, q_ref = eval_points(s, ts)
        oracle = np.array([eval_point(s, t) for t in ts])
        bound = max(1e-14, 1e-15 * n) * float(np.max(np.abs(g.derivs[:, 0])))
        for ref in ((p_ref, q_ref), (oracle[:, 0], oracle[:, 1])):
            assert np.max(np.abs(p - ref[0])) <= bound
            assert np.max(np.abs(q - ref[1])) <= bound

    @FULL_ID
    def test_grid_is_the_batch_of_one(self):
        for n in (1, 3, 16, 50, 256):
            s = sample(gaussian(), n, seed=n)
            for M in (16 * n, 32 * n):
                g = eval_grid(s, M=M)
                G = eval_grid_batch(s.y[None], n, M)
                assert G.shape == (1, M)
                assert G.real[0].tobytes() == g.derivs[:, 0].tobytes()
                assert G.imag[0].tobytes() == g.derivs[:, 1].tobytes()
                assert G.real[0].tobytes() == g.P.tobytes()


class TestCellExpansions:
    """``cell_expansions`` on the cells the engine audits: P' at the left
    node and the midpoint Taylor series at interior points, against the
    compensated oracle, within the bound of ``TestLocalEvaluator``."""

    @pytest.mark.parametrize("n", [16, 1024, 10_000])
    def test_matches_oracle_in_audited_cells(self, n):
        samples = [sample(gaussian(), n, seed=n, trial_index=t) for t in range(4)]
        ys = np.stack([s.y for s in samples])
        F = eval_grid_batch(ys, n, 16 * n)
        P = F.real
        found = _scan(ys, F)[-1]
        rows, cells = found.rows[:16], found.cells[:16]
        assert rows.size
        h = grid_spacing(n, P.shape[1])
        t_left = -n * math.pi + h * cells
        slope, coef = cell_expansions(ys, rows, t_left, h)
        bound = max(1e-14, 1e-15 * n) * float(np.max(np.abs(P)))
        for k, (r, t) in enumerate(zip(rows, t_left)):
            assert abs(slope[k] - eval_point(samples[r], t)[1]) <= bound
            for x in (-0.5, -0.17, 0.0, 0.29, 0.5):
                p, q = taylor_eval(coef[k], x * h)
                p_ref, q_ref = eval_point(samples[r], t + (0.5 + x) * h)
                assert abs(p - p_ref) <= bound
                assert abs(q - q_ref) <= bound


class TestBasisVectors:
    # the columns of C_n(i) = coefficient_matrices(n, t)[i - 1] are u_i(t)
    # and u_i'(t), so the slices [:, :, 0] and [:, :, 1] stack them as rows
    def test_phases_vanish_at_zero(self):
        C = coefficient_matrices(5, 0.0)
        np.testing.assert_allclose(C[:, :, 0], np.column_stack([np.ones(5), np.zeros(5)]))
        np.testing.assert_allclose(C[:, :, 1],
                                   np.column_stack([np.zeros(5), np.arange(1, 6) / 5]))

    @given(n=st.integers(1, 200), tt=st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_pythagorean_identity(self, n, tt):
        C = coefficient_matrices(n, tt)
        U, Up = C[:, :, 0], C[:, :, 1]
        total = np.sum(U * U, axis=1) + np.sum(Up * Up, axis=1)
        w = np.arange(1, n + 1) / n
        np.testing.assert_allclose(total, 1.0 + w * w, rtol=1e-12)

    def test_concatenation_order_t_block_first(self):
        C = coefficient_matrices(7, 1.1, s=2.2)
        np.testing.assert_allclose(C[:, :2, :], coefficient_matrices(7, 1.1))
        np.testing.assert_allclose(C[:, 2:, :], coefficient_matrices(7, 2.2))
        i = np.arange(1, 8)
        c, s = np.cos(i * 2.2 / 7), np.sin(i * 2.2 / 7)
        np.testing.assert_allclose(C[:, 2:, 0], np.column_stack([c, -(i / 7) * s]))
        np.testing.assert_allclose(C[:, 2:, 1], np.column_stack([s, (i / 7) * c]))

    @pytest.mark.parametrize("n", [1, 7, 4096, 100_000])
    def test_phase_table_matches_mpmath(self, n):
        # the angle-addition table against 40-digit cos and sin of k p / n:
        # each factor's angle carries the rounding of p/n, so the error
        # bound grows with the angle k |p| / n
        eps = np.finfo(float).eps
        ks = np.arange(1, n + 1) if n <= 4096 else np.unique(np.r_[
            1:400, np.linspace(1, n, 1500).astype(int), n - 400:n + 1])
        with mp.workdps(40):
            for p in (n * math.pi, -n * math.pi, math.pi * (math.sqrt(2) - 1) * n,
                      -math.pi * (math.sqrt(3) - 1) * n, 0.7, -1e-3, 0.0):
                (c, sn), _ = coefficient_columns(n, p)
                for k in ks.tolist():
                    th = mp.mpf(k) * mp.mpf(p) / n
                    err = max(abs(mp.cos(th) - c[k - 1]), abs(mp.sin(th) - sn[k - 1]))
                    assert err <= 2 * eps * (1 + k * abs(p) / n), (n, p, k, float(err))

    @pytest.mark.parametrize("s, only", [(None, [1]), (None, []), (2.2, [0, 2]),
                                         (2.2, [1, 3]), (2.2, [3, 3, 0])])
    def test_only_builds_the_named_rows(self, s, only):
        full, rows = coefficient_columns(1000, 1.1, s), coefficient_columns(1000, 1.1, s, only)
        assert len(rows) == len(full)
        for j, (got, want) in enumerate(zip(rows, full)):
            if j not in only:
                assert got is None
            else:
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("n, s", [(1, None), (7, 2.2), (1000, -3e3)])
    def test_matrices_and_point_rows_are_the_columns(self, n, s):
        rows = coefficient_columns(n, 1.1, s)
        assert len(rows) == (2 if s is None else 4)
        for c1, c2 in rows:
            assert c1.flags.c_contiguous and c2.flags.c_contiguous and c1.shape == (n,)
        C = coefficient_matrices(n, 1.1, s)
        for j, (c1, c2) in enumerate(rows):
            assert np.array_equal(C[:, j, 0], c1) and np.array_equal(C[:, j, 1], c2)
        for (U, Up), ((c, sn), (dc, dsn)) in zip(_point_rows(n, 1.1, s),
                                                 zip(rows[0::2], rows[1::2])):
            assert U.flags.c_contiguous and Up.flags.c_contiguous
            assert np.array_equal(U, np.column_stack([c, dc]))
            assert np.array_equal(Up, np.column_stack([sn, dsn]))

    @pytest.mark.parametrize("t, s", [(math.nan, None), (math.inf, None),
                                      (1.0, -math.inf), (1.0, math.nan)])
    def test_non_finite_points_are_refused(self, t, s):
        with pytest.raises(ValueError, match="finite"):
            coefficient_matrices(10, t, s)

    @pytest.mark.parametrize("n", [0, -3, 2.5, np.int64(0), np.float64(4.0), True],
                             ids=["zero", "negative", "fraction", "np-zero", "np-float", "bool"])
    @pytest.mark.parametrize("caller", [
        lambda n: c_n_alpha(n, 1.0, rademacher(), (1, 1, 1, 1)),
        lambda n: log_abs_charfn(n, 1.0, rademacher(), [0.1, 0.2]),
        lambda n: covariance_V(n, 1.0),
        lambda n: exponent_bound(n, 1.0, rademacher(), [0.1, 0.2]),
    ], ids=["c_n_alpha", "log_abs_charfn", "covariance_V", "exponent_bound"])
    def test_degree_must_be_a_positive_integer(self, caller, n):
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n}"):
            caller(n)
        caller(np.int64(5))


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
