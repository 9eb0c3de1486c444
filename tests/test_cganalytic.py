import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from trigroots import cganalytic
from trigroots.cganalytic import (
    ONE_MINUS_G2_SERIES,
    PREFACTOR_NUM_SERIES,
    RSTAR_DEN_SERIES,
    RSTAR_NUM_SERIES,
    CgConvergenceError,
    _g_arrays,
    _kernel_parts,
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

    def test_doubling_tail_start_is_stable(self):
        base = compute_cg()
        double = compute_cg(tail_start=2e4)
        assert abs(double.value - base.value) < 1e-8 * 10

    def test_t0_stability(self, monkeypatch):
        vals = []
        for t0 in (0.02, 0.05, 0.1):
            monkeypatch.setattr(cganalytic, "_T0", t0)
            vals.append(compute_cg().value)
        assert max(vals) - min(vals) < 1e-6

    def test_error_estimate_bounds_spreads(self, monkeypatch):
        base = compute_cg()
        spread_T = abs(compute_cg(tail_start=2e4).value - base.value)
        monkeypatch.setattr(cganalytic, "_T0", 0.02)
        spread_t0 = abs(compute_cg().value - base.value)
        assert max(spread_T, spread_t0) <= base.error_estimate

    def test_nonconvergence_raises_with_partial(self, monkeypatch):
        monkeypatch.setattr(cganalytic, "_MAX_REFINEMENTS", 2)
        with pytest.raises(CgConvergenceError) as err:
            compute_cg(abs_tol=1e-15)
        assert abs(err.value.partial - 0.558) < 0.05

    def test_config_validation(self):
        for tol in (math.nan, math.inf, -1.0, 0.0):
            with pytest.raises(ValueError, match="abs_tol"):
                compute_cg(abs_tol=tol)
        with pytest.raises(ValueError, match="tail_start must be finite, got inf"):
            compute_cg(tail_start=math.inf)
        with pytest.raises(ValueError, match="tail_start must be > 1, got 0.5"):
            compute_cg(tail_start=0.5)



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
        assert res.value.hex() == "0x1.1dd436b2b13a7p-1"
        assert res.error_estimate.hex() == "0x1.7f2713252bbdap-26"
        assert (res.evaluations, res.panels) == (48000, 3192)

    @pytest.mark.parametrize("t0", sorted(INTEGRAND_DIGESTS))
    def test_integrand_unchanged(self, t0, monkeypatch):
        """t = 0, both sides of every switchover, and the quadrature's range."""
        monkeypatch.setattr(cganalytic, "_T0", t0)
        t = np.concatenate([[0.0], np.geomspace(1e-8, 0.6, 200001),
                            np.linspace(0.6, 1e4, 100001)])
        f = cg_integrand(t).astype("<f8")
        assert hashlib.sha256(f.tobytes()).hexdigest() == self.INTEGRAND_DIGESTS[t0]
