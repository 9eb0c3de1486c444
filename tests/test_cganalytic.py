import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from oracles import cg_tail_series
from trigroots import cganalytic
from trigroots.cganalytic import (
    _TAIL_SERIES,
    ONE_MINUS_G2_SERIES,
    PREFACTOR_NUM_SERIES,
    RSTAR_DEN_SERIES,
    RSTAR_NUM_SERIES,
    _g_arrays,
    _kernel_parts,
    _panel_rule,
    _tail,
    _tail_series,
    cg_integrand,
    compute_cg,
)

mp.mp.dps = 50


def _mp_g(t):
    t = mp.mpmathify(t)
    g = mp.sin(t) / t
    gp = (t * mp.cos(t) - mp.sin(t)) / t**2
    gpp = -mp.sin(t) / t - 2 * mp.cos(t) / t**2 + 2 * mp.sin(t) / t**3
    return g, gp, gpp


def _mp_rstar(t):
    g, gp, gpp = _mp_g(t)
    return (gpp * (1 - g**2) + g * gp**2) / ((1 - g**2) / 3 - gp**2)


def _mp_integrand(t):
    g, gp, gpp = _mp_g(t)
    r = _mp_rstar(t)
    pref = (1 - g**2 - 3 * gp**2) / (1 - g**2) ** mp.mpf("1.5")
    return pref * (mp.sqrt(1 - r**2) + r * mp.asin(r)) - 1


def g_at(t):
    """(g, g', g'') at one point, from the closed forms."""
    return tuple(float(v[0]) for v in _g_arrays(np.array([float(t)])))


def rstar(t):
    _, _, num, den = _kernel_parts(np.atleast_1d(np.asarray(t, dtype=float)))
    r = num / den
    return float(r[0]) if np.ndim(t) == 0 else r


class TestGFuncs:
    def test_at_pi(self):
        g, gp, _ = g_at(math.pi)
        assert g == pytest.approx(0.0, abs=1e-15)
        assert gp == pytest.approx(-1 / math.pi, rel=1e-13)

    def test_bounded_by_one(self):
        ts = np.geomspace(1e-3, 1e4, 2000)
        g, _, _ = _g_arrays(ts)
        assert np.all(np.abs(g) <= 1.0 + 1e-15)


class TestSeries:
    def test_doubles_are_the_rounded_taylor_coefficients(self):
        """Each series coefficient is the double nearest the exact Taylor
        coefficient of its closed form, here a 64-point Cauchy sum on |z| = 1
        (aliasing below 1e-50)."""
        zs = [mp.expjpi(mp.mpf(2 * j) / 64) for j in range(64)]
        parts = []
        for z in zs:
            g, gp, gpp = _mp_g(z)
            omg2 = 1 - g**2
            parts.append((omg2, omg2 - 3 * gp**2, gpp * omg2 + g * gp**2,
                          omg2 / 3 - gp**2))
        tables = [(ONE_MINUS_G2_SERIES, 2, 10), (PREFACTOR_NUM_SERIES, 4, 9),
                  (RSTAR_NUM_SERIES, 4, 9), (RSTAR_DEN_SERIES, 4, 9)]
        for i, (series, lowest, terms) in enumerate(tables):
            exact = [float(mp.re(mp.fsum(p[i] * z**-k for p, z in zip(parts, zs))) / 64)
                     for k in range(lowest, lowest + 2 * terms, 2)]
            assert [c.hex() for c in series] == [c.hex() for c in exact]


class TestRstar:
    def test_reference_value_at_one(self):
        assert rstar(1.0) == pytest.approx(float(_mp_rstar(1.0)), rel=1e-12)

    def test_series_branch_against_high_precision(self, monkeypatch):
        monkeypatch.setattr(cganalytic, "_T0", 0.6)
        for t in (0.2, 0.35, 0.5):
            assert rstar(t) == pytest.approx(float(_mp_rstar(t)), rel=1e-11)

    def test_asymptotic_along_half_integer_multiples(self):
        t = 318 * math.pi + math.pi / 2
        _, _, gpp = g_at(t)
        assert rstar(t) == pytest.approx(3 * gpp, abs=3e-3)
        assert abs(rstar(1e3)) <= 5e-3

    def test_magnitude_bounded_on_log_grid(self):
        # cg_integrand clamps R* to [-1, 1]; the excursion it clamps is
        # rounding only
        ts = np.geomspace(1e-6, 1e4, 10000)
        assert np.max(np.abs(rstar(ts))) <= 1.0 + 1e-9

    def test_denominator_positive_on_scan(self):
        ts = np.geomspace(1e-3, 1e4, 5000)
        gs = np.sin(ts) / ts
        gps = (ts * np.cos(ts) - np.sin(ts)) / ts**2
        den = (1 - gs**2) / 3 - gps**2
        assert np.all(den > 0)


class TestIntegrand:
    def test_limit_at_zero_by_richardson(self):
        # f(h), f(2h) with h = 1e-6: extrapolation pins f(0+)
        f1 = cg_integrand(1e-6)
        f2 = cg_integrand(2e-6)
        extrap = 2 * f1 - f2
        assert extrap == pytest.approx(-1.0, abs=1e-9)
        assert cg_integrand(0.0) == -1.0

    def test_limit_where_t_squared_underflows(self):
        ts = np.array([0.0, 5e-324, 1e-300, 1e-200, 1e-160, 1e-100])
        assert np.array_equal(cg_integrand(ts), np.full(ts.size, -1.0))

    def test_decay_at_large_t(self):
        assert abs(cg_integrand(1e3)) <= 1e-5

    def test_continuous_across_switchover(self, monkeypatch):
        for t0 in (0.05, 0.1):
            monkeypatch.setattr(cganalytic, "_T0", t0)
            lo = cg_integrand(t0 - 1e-12)
            hi = cg_integrand(t0 + 1e-12)
            assert lo == pytest.approx(hi, abs=1e-10)

    def test_closed_forms_lose_digits_below_the_switch(self, monkeypatch):
        """Why the switch is at 0.05: switched at 0.02, the series below it
        is exact, and the closed forms above it lose digits to cancellation:
        6e-10 off, a jump past the continuity tolerance."""
        t0 = 0.02
        monkeypatch.setattr(cganalytic, "_T0", t0)
        lo, hi = t0 - 1e-12, t0 + 1e-12
        assert cg_integrand(lo) == pytest.approx(float(_mp_integrand(lo)), rel=0.0, abs=1e-15)
        assert 1e-10 < abs(cg_integrand(hi) - float(_mp_integrand(hi))) < 1e-9

    def test_against_high_precision_on_mid_range(self):
        for t in (0.2, 0.7, 1.5, 3.0, 7.7):
            assert cg_integrand(t) == pytest.approx(float(_mp_integrand(t)),
                                                    rel=1e-10, abs=1e-13)


class TestComputeCg:
    def test_default_hits_published_value(self):
        res = compute_cg()
        assert res.value == pytest.approx(0.55826, abs=5e-4)

    def test_integral_term_alone(self):
        res = compute_cg()
        assert res.value - 2 / math.sqrt(3) == pytest.approx(-0.59644, abs=1e-3)

    def test_doubling_tail_start_is_stable(self, monkeypatch):
        base = compute_cg()
        monkeypatch.setattr(cganalytic, "_TAIL_START", 2e4)
        double = compute_cg()
        assert abs(double.value - base.value) < 1e-8 * 10

    def test_t0_stability(self, monkeypatch):
        vals = []
        for t0 in (0.02, 0.05, 0.1):
            monkeypatch.setattr(cganalytic, "_T0", t0)
            vals.append(compute_cg().value)
        assert max(vals) - min(vals) < 1e-6

    def test_error_estimate_bounds_spreads(self, monkeypatch):
        base = compute_cg()
        with monkeypatch.context() as m:
            m.setattr(cganalytic, "_TAIL_START", 2e4)
            spread_T = abs(compute_cg().value - base.value)
        spread_t0 = 0.0
        for t0 in (0.02, 0.1):
            monkeypatch.setattr(cganalytic, "_T0", t0)
            spread_t0 = max(spread_t0, abs(compute_cg().value - base.value))
        assert max(spread_T, spread_t0) <= base.error_estimate

    @pytest.mark.parametrize("panel", [math.pi / 4, math.pi / 6])
    def test_finer_panels_move_cg_within_its_estimate(self, panel, monkeypatch):
        """Against the default pi/2 panels, a finer fixed rule moves cg by
        less than the default error estimate, which stays below 1e-10."""
        base = compute_cg()
        monkeypatch.setattr(cganalytic, "_PANEL", panel)
        finer = compute_cg()
        assert finer.evaluations > base.evaluations
        assert abs(finer.value - base.value) <= base.error_estimate <= 1e-10



def _mp_series(rows, t, lowest=2):
    """sum_m rows[m - lowest](t) t^-m in mpmath, cos for even m, sin for odd."""
    t = mp.mpf(t)
    return mp.fsum((mp.cos if m % 2 == 0 else mp.sin)(2 * j * t)
                   * mp.fdiv(*a.as_integer_ratio()) / t**m
                   for m, row in enumerate(rows, lowest) for j, a in enumerate(row)
                   if a)


class TestTailSeries:
    ORACLE = cg_tail_series(12)

    def test_table_is_the_exact_series(self):
        """Each entry is the double nearest the oracle's exact rational; the
        oracle's rows below u^2 are empty, and so is u^5."""
        assert self.ORACLE[0] == self.ORACLE[1] == self.ORACLE[5] == ()
        assert [tuple(map(float, row)) for row in self.ORACLE[2:11]] == \
            [tuple(map(float, row)) for row in _TAIL_SERIES]

    @pytest.mark.parametrize("t", [25, 50, 100, 200])
    def test_gap_to_the_integrand_falls_like_t_to_the_minus_11(self, t):
        """f minus the module's u^2 ... u^10 terms, in 50 digits, is the
        oracle's u^11 term up to less than twice the l1 norm of its u^12 row
        over t, in units of t^-11."""
        gap = _mp_integrand(t) - _mp_series(_TAIL_SERIES, t)
        u11 = _mp_series(self.ORACLE[11:12], t, lowest=11)
        bound = 2 * sum(abs(float(a)) for a in self.ORACLE[12]) / t
        assert abs(float((gap - u11) * mp.mpf(t) ** 11)) <= bound

    def test_float_evaluation(self):
        ts = np.array([8 * math.pi, 30.0, 16 * math.pi, 1e3])
        exact = [float(_mp_series(_TAIL_SERIES, t)) for t in ts]
        assert _tail_series(ts) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("T", [12.0, 16.0, 20.0, 25.0])
    def test_tail_error_estimate_covers_the_tail(self, T):
        """Against the integral to 64 pi on pi/4-panels plus the tail from
        there (each ~1e-15 off): from T = 16 on the measured series
        remainder, not the parts bound, is what covers the error."""
        far = 64 * math.pi
        edges = np.linspace(T, far, int((far - T) / (math.pi / 4)) + 1)
        exact = _panel_rule(edges[:-1], edges[1:])[0].sum() + _tail(far)[0]
        tail, err = _tail(T)
        assert abs(tail - exact) <= err

    def test_value_does_not_move_with_tail_start(self, monkeypatch):
        base = compute_cg()
        spread = 0.0
        for T in (8 * math.pi, 32 * math.pi, 64 * math.pi, 2e4):
            monkeypatch.setattr(cganalytic, "_TAIL_START", T)
            spread = max(spread, abs(compute_cg().value - base.value))
        assert spread <= 1e-12
        assert spread <= base.error_estimate <= 1e-8

    @pytest.mark.parametrize("T", [3.0, 6.0, 10.0, 8 * math.pi])
    def test_short_tail_start_raises_or_bounds_its_error(self, T, monkeypatch):
        """Where the series has not yet converged, the tail's error estimate
        still covers the value's move; nothing raises now, at any tail start."""
        base = compute_cg().value
        monkeypatch.setattr(cganalytic, "_TAIL_START", T)
        res = compute_cg()
        assert res.error_estimate >= abs(res.value - base)


class TestCgPinned:
    """``compute_cg`` and ``cg_integrand`` bits, pinned at the hand-typed
    series tables: any change to the integrand's arithmetic shows here."""

    #: sha256 of the integrand's float64 bytes on the grid below, per t0
    INTEGRAND_DIGESTS = {
        0.02: "29dde9d6d90e89f20a3ffe20b1a7f545322211c421a1fb80e7d1323195bd506e",
        0.05: "4ee6c4be9b8887b476eeddba489013f0774ac46ce413c6b673629cbee1397c59",
        0.1: "d01feb42a4b3acfcc361a539918e423aa0fc5b4890dc2ff3c58d3c9a1f8f9fff",
        0.6: "a4e1ec1f76e0c2be1b64651062665765cbc6e7076255912cf1d2590e777df4e3",
    }

    def test_compute_cg_unchanged(self):
        res = compute_cg()
        assert res.value.hex() == "0x1.1dd436b2b3893p-1"
        assert res.error_estimate.hex() == "0x1.2c589dd434bd8p-36"
        assert res.evaluations == 495

    @pytest.mark.parametrize("t0", sorted(INTEGRAND_DIGESTS))
    def test_integrand_unchanged(self, t0, monkeypatch):
        """t = 0, both sides of every switchover, and the quadrature's range."""
        monkeypatch.setattr(cganalytic, "_T0", t0)
        t = np.concatenate([[0.0], np.geomspace(1e-8, 0.6, 200001),
                            np.linspace(0.6, 1e4, 100001)])
        f = cg_integrand(t).astype("<f8")
        assert hashlib.sha256(f.tobytes()).hexdigest() == self.INTEGRAND_DIGESTS[t0]
