import math

import numpy as np
import pytest

from trigroots.charprobe import (
    FeasibilityError,
    decay_scan,
    exponent_bound,
    gaussian_ball_probability,
    log_abs_charfn,
    small_ball_mc,
    smallball_1d_scan,
)
from oracles import normal_interval_probability
from trigroots.diophantine import check_condition_t
from trigroots.ensemble import discrete, gaussian, rademacher, uniform
from trigroots.polyeval import basis_matrices, covariance_V

ALL_DISTS = [gaussian(), rademacher(), uniform(),
             discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])]


def _good_t(n):
    for mult in (math.sqrt(2) - 1, math.sqrt(3) - 1, math.sqrt(5) - 2):
        t = math.pi * n * mult
        if check_condition_t(n, t).satisfied:
            return t
    raise RuntimeError


class TestLogAbsCharfn:
    def test_zero_frequency(self):
        for dist in ALL_DISTS:
            assert log_abs_charfn(50, 3.0, dist, np.zeros(2)) == 0.0
            assert exponent_bound(50, 3.0, dist, np.zeros(2)) == 0.0

    def test_single_factor_closed_form(self):
        x = np.array([0.7, -0.4])
        U, Up = basis_matrices(1, 2.0)
        expected = (math.log(abs(math.cos((U @ x).item())))
                    + math.log(abs(math.cos((Up @ x).item()))))
        assert log_abs_charfn(1, 2.0, rademacher(), x) == pytest.approx(expected)

    def test_gaussian_quadratic_identity(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 200))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            x = rng.standard_normal(2)
            V = covariance_V(n, t).entries
            expected = -(n / 2.0) * float(x @ V @ x)
            assert log_abs_charfn(n, t, gaussian(), x) == \
                pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_dim4_padding_reduces_to_dim2(self, rng):
        n = 60
        t, s = 11.0, -29.0
        x2 = rng.standard_normal(2)
        x4 = np.concatenate([x2, np.zeros(2)])
        for dist in ALL_DISTS:
            assert log_abs_charfn(n, t, dist, x4, s=s) == \
                log_abs_charfn(n, t, dist, x2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_abs_charfn(10, 1.0, gaussian(), np.zeros(3))


class TestExponentBound:
    def test_dominance_random_cases(self, rng):
        worst = np.inf
        for case in range(200):
            dist = ALL_DISTS[case % 4]
            n = int(rng.integers(1, 301))
            d = 2 if case % 2 == 0 else 4
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            s = float(rng.uniform(-n * math.pi, n * math.pi)) if d == 4 else None
            x = rng.standard_normal(d)
            x *= rng.uniform(0, 10) / np.linalg.norm(x)
            la = log_abs_charfn(n, t, dist, x, s)
            bd = exponent_bound(n, t, dist, x, s)
            worst = min(worst, bd - la)
            assert la <= bd + 1e-9
        assert worst >= -1e-9

    def test_gaussian_bound_is_weaker_for_small_x(self, rng):
        n = 100
        t = 37.0
        x = np.array([0.05, 0.02])
        exact = log_abs_charfn(n, t, gaussian(), x)
        bound = exponent_bound(n, t, gaussian(), x)
        assert bound > exact


class TestDecayScan:
    def test_decay_at_unit_radius(self):
        n = 500
        t = _good_t(n)
        rep = decay_scan(n, t, rademacher(), radii=np.array([1.0]),
                         directions_per_radius=40, seed=6)
        assert rep.condition_ok
        assert rep.worst_log_abs[0] <= -5.0
        assert np.all(rep.worst_log_abs <= 0.0)
        assert np.all(rep.bound_log <= 0.0)

    def test_decay_in_every_direction_dense_grid(self):
        # brute-force angular grid at a small size: the worst direction
        # still decays at unit radius, and the random scan agrees
        n = 50
        t = _good_t(n)
        angles = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
        worst = -np.inf
        for a in angles:
            x = np.array([math.cos(a), math.sin(a)])
            worst = max(worst, log_abs_charfn(n, t, rademacher(), x))
        assert worst <= -1.0
        rep = decay_scan(n, t, rademacher(), radii=np.array([1.0]),
                         directions_per_radius=64, seed=9)
        assert rep.worst_log_abs[0] <= -1.0

    def test_tiny_radius_allows_no_decay(self):
        n = 500
        t = _good_t(n)
        rep = decay_scan(n, t, rademacher(), radii=np.array([1e-3]),
                         directions_per_radius=8, seed=1)
        assert rep.worst_log_abs[0] > -0.5
        assert not rep.regime_flags[0]  # below the decay regime

    def test_resonant_point_defeats_decay(self):
        # at t = pi n / 2 the projections are integer multiples of 2 pi
        # along x = (2 pi, 0): every factor equals 1
        n = 500
        t = math.pi * n / 2
        x = np.array([2 * math.pi, 0.0])
        assert log_abs_charfn(n, t, rademacher(), x) == pytest.approx(0.0, abs=1e-9)
        with pytest.warns(UserWarning):
            rep = decay_scan(n, t, rademacher(), tau=0.12,
                             radii=np.array([2 * math.pi]),
                             directions_per_radius=4, seed=0)
        assert not rep.condition_ok

    def test_regime_flags(self):
        n = 200
        t = _good_t(n)
        rep = decay_scan(n, t, rademacher(), radii_count=6,
                         directions_per_radius=4, seed=2)
        assert rep.regime_flags.all()


class TestSmallBall:
    def test_whole_space_ball(self):
        # rademacher coefficients keep |(P, P')| under 2 sqrt(n) + 2
        n = 16
        est = small_ball_mc(n, 5.0, rademacher(), np.zeros(2), delta=50.0,
                            trials=2000, seed=1)
        assert est.probability == 1.0

    def test_quadratic_cap_at_moderate_delta(self):
        n = 200
        t = _good_t(n)
        est = small_ball_mc(n, t, rademacher(), np.zeros(2), 0.05,
                            trials=60000, seed=3)
        assert est.probability / 0.05**2 <= 50.0

    def test_gaussian_matches_planar_oracle(self):
        n = 150
        t = _good_t(n)
        V = covariance_V(n, t).entries
        for center in (np.zeros(2), np.array([0.4, 0.1])):
            est = small_ball_mc(n, t, gaussian(), center, 0.08,
                                trials=120000, seed=7)
            ref = gaussian_ball_probability(V, center, 0.08)
            assert abs(est.probability - ref) <= 3 * est.se

    def test_infeasible_refusal_reports_required_trials(self):
        with pytest.raises(FeasibilityError) as err:
            small_ball_mc(100, 37.0, gaussian(), np.zeros(2), 1e-5,
                          trials=100, seed=0)
        assert err.value.required_trials > 100

    def test_rejects_delta_not_finite_and_positive(self):
        # a NaN expected-hit count would pass the feasibility gate
        for delta in (math.nan, math.inf, 0.0):
            for force in (False, True):
                with pytest.raises(ValueError):
                    small_ball_mc(50, 3.0, gaussian(), np.zeros(2), delta,
                                  trials=1000, seed=0, force=force)

    def test_r4_probe(self):
        n = 100
        s = math.pi * n * (math.sqrt(2) - 1)
        t = math.pi * n * (math.sqrt(3) - 1)
        est = small_ball_mc(n, t, rademacher(), np.zeros(4), 0.2,
                            trials=100000, seed=5, s=s, force=True)
        assert est.probability / 0.2**4 <= 500.0


class TestOneDScan:
    def test_huge_delta_probability_one(self):
        res = smallball_1d_scan(20, 7.0, rademacher(), delta=10.0,
                                trials=2000, seed=1)
        assert res.max_probability == 1.0

    def test_capped_by_fractional_power(self):
        n = 200
        t = _good_t(n)
        res = smallball_1d_scan(n, t, rademacher(), delta=0.05,
                                trials=40000, seed=2)
        assert res.max_probability <= 0.5 * 0.05 ** (4 / 5) * 20.0

    def test_gaussian_matches_normal_cdf(self):
        n = 150
        t = _good_t(n)
        res = smallball_1d_scan(n, t, gaussian(), delta=0.1,
                                trials=100000, seed=3)
        V = covariance_V(n, t).entries
        for c, p, se in zip(res.centers, res.probabilities, res.ses):
            ref = normal_interval_probability(V[0, 0], float(c), 0.1)
            assert abs(p - ref) <= 3 * se + 1e-4

    def test_infeasible_refused(self):
        with pytest.raises(FeasibilityError):
            smallball_1d_scan(50, 3.0, gaussian(), delta=1e-6, trials=100, seed=0)

    def test_rejects_delta_not_finite_and_positive(self):
        for delta in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError):
                smallball_1d_scan(50, 3.0, gaussian(), delta, trials=1000, seed=0)
