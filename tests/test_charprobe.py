import math
import tracemalloc
import warnings

import numpy as np
import pytest

from trigroots import charprobe, ensemble
from trigroots.charprobe import (
    FeasibilityError,
    _walk_values,
    decay_scan,
    exponent_bound,
    gaussian_ball_probability,
    log_abs_charfn,
    small_ball_mc,
)
from oracles import (
    decay_scan_loop,
    rng_for_trial,
    walk_values_reference,
)
from trigroots.acceptance import _heavy_discrete
from trigroots.diophantine import good_pair, good_t
from trigroots.ensemble import CoefficientSample, discrete, gaussian, rademacher, uniform
from trigroots.polyeval import coefficient_matrices, covariance_V, eval_points

ALL_DISTS = [gaussian(), rademacher(), uniform(),
             discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])]


class TestLogAbsCharfn:
    def test_zero_frequency(self):
        for dist in ALL_DISTS:
            assert log_abs_charfn(50, 3.0, dist, np.zeros(2)) == 0.0
            assert exponent_bound(50, 3.0, dist, np.zeros(2)) == 0.0

    def test_single_factor_closed_form(self):
        x = np.array([0.7, -0.4])
        C = coefficient_matrices(1, 2.0)
        U, Up = C[:, :, 0], C[:, :, 1]
        expected = (math.log(abs(math.cos((U @ x).item())))
                    + math.log(abs(math.cos((Up @ x).item()))))
        assert log_abs_charfn(1, 2.0, rademacher(), x) == pytest.approx(expected)

    @pytest.mark.parametrize("dist", [rademacher(), uniform()], ids=str)
    def test_real_factor_is_the_charfn_route(self, dist, rng):
        # seeded angles with the factors' zeros as rounded to floats (odd
        # multiples of pi/2, multiples of pi/sqrt(3)), signed zeros, the
        # least subnormal and huge angles: the bits of the complex route,
        # without a warning
        k = np.arange(-40.0, 41.0)
        theta = np.concatenate([rng.uniform(-60.0, 60.0, 20_000), (k + 0.5) * math.pi,
                                k * math.pi / math.sqrt(3), [0.0, -0.0, 5e-324, 1e300, -1e300]])
        with np.errstate(divide="ignore"):
            ref = np.log(np.abs(ensemble.charfn_scalar(dist, theta)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ensemble.log_abs_charfn_scalar(dist, theta)
            one = ensemble.log_abs_charfn_scalar(dist, 0.3)
        assert got.tobytes() == ref.tobytes()
        assert one == np.log(np.abs(ensemble.charfn_scalar(dist, 0.3)))

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

    @pytest.mark.parametrize("probe", [log_abs_charfn, exponent_bound])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_x(self, probe, bad):
        for dist in (gaussian(), rademacher()):
            with pytest.raises(ValueError, match=f"x must be finite, got {bad}"):
                probe(50, 3.0, dist, [bad, 1.0])


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
        t = good_t(n)
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
        t = good_t(n)
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
        t = good_t(n)
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
        t = good_t(n)
        rep = decay_scan(n, t, rademacher(), radii_count=6,
                         directions_per_radius=4, seed=2)
        assert rep.regime_flags.all()

    # one Gaussian term table a tier peaked at 6.7 MiB at n = 500; at
    # n = 5000, 10 MiB is eight (32, n) arrays, where one table a tier
    # peaks at 19.9 MiB
    @pytest.mark.parametrize("n, mib", [(500, 3.05), (5000, 10.0)])
    def test_gaussian_peak_memory(self, n, mib):
        t = good_t(n)
        decay_scan(n, t, gaussian())
        tracemalloc.start()
        try:
            decay_scan(n, t, gaussian())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, peak / 2**20


class TestDecayScanMatchesLoop:
    """The batched scan gives the direction-at-a-time loop's report."""

    @pytest.mark.parametrize("s", [None, 0.37 * 300 * math.pi], ids=["d2", "d4"])
    @pytest.mark.parametrize("dist", [gaussian(), rademacher(), _heavy_discrete()],
                             ids=["gaussian", "rademacher", "discrete"])
    def test_report_matches_loop(self, dist, s):
        n = 300
        t = good_t(n)
        for seed in (0, 5):
            rep = decay_scan(n, t, dist, radii_count=6, directions_per_radius=16,
                             seed=seed, s=s)
            worst, bound = decay_scan_loop(n, t, dist, rep.radii, 16, seed, s)
            np.testing.assert_array_equal(rep.worst_log_abs, worst)
            if dist.kind == "gaussian":
                np.testing.assert_allclose(
                    rep.bound_log, bound, rtol=0.0,
                    atol=1e-14 * max(1.0, float(np.abs(bound).max())))
            else:
                np.testing.assert_array_equal(rep.bound_log, bound)

    # a scalar once ended in an AttributeError
    @pytest.mark.parametrize("radii, message", [
        *(([1.0, r], f"radii must be finite and > 0, got {r}")
          for r in (-1.0, 0.0, math.nan, math.inf)),
        *((r, "radii must be a 1-d array of at least one radius") for r in (1.0, [[1.0]], [])),
    ], ids=["-1.0", "0.0", "nan", "inf", "scalar", "2-d", "empty"])
    def test_refuses_bad_radii(self, radii, message):
        with pytest.raises(ValueError, match=message):
            decay_scan(50, good_t(50), gaussian(), radii=radii)

    # 2.5 once ended in a TypeError from numpy, and True ran one radius
    @pytest.mark.parametrize("name", ["radii_count", "directions_per_radius"])
    @pytest.mark.parametrize("count, rule", [(0, ">= 1"), (2.5, "an integer"),
                                             (True, "an integer")],
                             ids=["zero", "fraction", "bool"])
    def test_refuses_counts_that_are_not_positive_integers(self, name, count, rule):
        with pytest.raises(ValueError, match=f"{name} must be {rule}, got {count}"):
            decay_scan(50, good_t(50), gaussian(), **{name: count})

    def test_refuses_non_finite_c_star(self):
        with pytest.raises(ValueError, match="c_star must be finite, got inf"):
            decay_scan(50, good_t(50), gaussian(), c_star=math.inf)

    @pytest.mark.parametrize("c_star, bound", [(1000.0, "inf"), (-1000.0, "0")],
                             ids=["overflow", "underflow"])
    def test_refuses_radius_bound_out_of_range(self, c_star, bound):
        with pytest.raises(ValueError, match=f"c_star = {c_star} puts the radius "
                                             f"bound n\\^c_star at {bound} for n = 500"):
            decay_scan(500, good_t(500), gaussian(), c_star=c_star)


class TestWalkValues:
    """Row r of the walk is (P, P') at t, then at s, of the r-th draw."""

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("s", [None, -41.5], ids=["d2", "d4"])
    @pytest.mark.parametrize("dist", [gaussian(), rademacher()],
                             ids=["gaussian", "rademacher"])
    def test_rows_are_p_and_p_prime(self, dist, s, n, monkeypatch):
        t, trials, chunk, seed = 13.25, 23, 5, 9
        monkeypatch.setattr(charprobe, "WALK_CHUNK", chunk)
        walk = np.concatenate(list(_walk_values(n, t, dist, s, trials, seed)))
        rng = rng_for_trial(seed, 0)
        ys = np.concatenate([ensemble._draw(dist, rng, (min(chunk, trials - lo), n, 2))
                             for lo in range(0, trials, chunk)])
        pts = [t] if s is None else [t, s]
        ref = np.array([np.column_stack(eval_points(
            CoefficientSample(n=n, y=y, seed=seed, trial_index=0), pts)).ravel()
            for y in ys])
        assert walk.shape == ref.shape == (trials, 2 * len(pts))
        np.testing.assert_allclose(walk, ref, rtol=0.0,
                                   atol=1e-13 * np.abs(ref[:, ::2]).max())


def _walk_point(dim):
    """(s, t) of criterion 10's walks in R^dim (s is None in the plane)."""
    return good_pair(200) if dim == 4 else (None, good_t(200, anchor=math.sqrt(5) * 0.5 - 0.8))


def _small_ball_peak(dist, dim):
    """Traced peak of one criterion-10-sized ``small_ball_mc`` call at 0."""
    s, t = _walk_point(dim)
    tracemalloc.start()
    try:
        est = small_ball_mc(200, t, dist, np.zeros(dim), 0.15, 200_000, seed=2136, s=s,
                            force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.trials == 200_000 and est.hits > 0
    return peak


# criterion 10's three kinds of walk, each under its first call's seed, with
# the reference walk built once for the tests that read it
@pytest.fixture(scope="class", params=[(rademacher(), 2, 2036), (rademacher(), 4, 2136),
                                       (gaussian(), 2, 2236)],
                ids=["rademacher-r2", "rademacher-r4", "gaussian-r2"])
def criterion_10_walk(request):
    dist, dim, seed = request.param
    s, t = _walk_point(dim)
    return dist, dim, seed, walk_values_reference(200, t, dist, s, 200_000, seed)


class TestWalkOracle:
    """Criterion 10's walks at full size: the raw-word signs and the
    2,000-walk chunks give the integer-sampler walk's exact values."""

    def test_walk_is_the_reference_walk(self, criterion_10_walk):
        dist, dim, seed, ref = criterion_10_walk
        n, trials = 200, 200_000
        s, t = _walk_point(dim)
        walk = np.concatenate(list(_walk_values(n, t, dist, s, trials, seed)))
        assert walk.shape == (trials, dim)
        assert np.array_equal(walk, ref)

    def test_hits_are_the_reference_walks_hits(self, criterion_10_walk):
        """Hits counted chunk by chunk are the whole walk's, bit for bit, at
        criterion 10's first center and radius of each kind."""
        dist, dim, seed, ref = criterion_10_walk
        s, t = _walk_point(dim)
        center, delta = ((np.random.default_rng(2036).uniform(-0.5, 0.5, 4), 0.15) if dim == 4
                         else (np.zeros(2), 0.05) if dist.kind == "gaussian"
                         else (np.array([-1.0, -0.6]), 0.05))
        hits = int(np.sum(np.sum((ref - center) ** 2, axis=1) < delta**2))
        est = small_ball_mc(200, t, dist, center, delta, 200_000, seed=seed, s=s, force=True)
        assert est.hits == hits > 0

    # the draw buffer is (2000, 400) doubles, 6.1 MiB; a Rademacher chunk's
    # raw words add 3.05 MiB while they are decoded into it
    def test_walk_fits_in_memory(self):
        assert _small_ball_peak(rademacher(), 4) < 10 * 2**20

    @pytest.mark.parametrize("dist, dim, mib", [(rademacher(), 2, 10.0), (gaussian(), 2, 7.0),
                                                (gaussian(), 4, 7.0)],
                             ids=["rademacher-r2", "gaussian-r2", "gaussian-r4"])
    def test_every_walk_fits_in_memory(self, dist, dim, mib):
        assert _small_ball_peak(dist, dim) < mib * 2**20


#: trial counts refused by name: 2000.5 once ended in a TypeError from range
NOT_COUNTS = pytest.mark.parametrize("trials", [2000.5, np.float64(2000.0), True])


class TestSmallBall:
    @NOT_COUNTS
    def test_refuses_a_trial_count_not_an_integer(self, trials):
        with pytest.raises(ValueError, match=f"trials must be an integer, got {trials}"):
            small_ball_mc(16, 5.0, rademacher(), np.zeros(2), 50.0, trials, force=True)

    def test_whole_space_ball(self):
        # rademacher coefficients keep |(P, P')| under 2 sqrt(n) + 2
        n = 16
        est = small_ball_mc(n, 5.0, rademacher(), np.zeros(2), delta=50.0,
                            trials=2000, seed=1)
        assert est.probability == 1.0

    def test_quadratic_cap_at_moderate_delta(self):
        n = 200
        t = good_t(n)
        est = small_ball_mc(n, t, rademacher(), np.zeros(2), 0.05,
                            trials=60000, seed=3)
        assert est.probability / 0.05**2 <= 50.0

    def test_gaussian_matches_planar_oracle(self):
        n = 150
        t = good_t(n)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("force", [False, True])
    def test_refuses_a_non_finite_center(self, bad, force):
        # a NaN or inf center once gave probability 0.0 with se 1e-151
        with pytest.raises(ValueError, match=f"center must be finite, got {bad}"):
            small_ball_mc(5, 1.0, rademacher(), np.array([bad, 0.0]), 0.5, 100, force=force)

    # delta -0.5 once gave the probability at +0.5, and NaN gave NaN
    @pytest.mark.parametrize("center, delta, message", [
        (np.zeros(2), -0.5, "delta must be finite and > 0, got -0.5"),
        (np.zeros(2), 0.0, "delta must be finite and > 0, got 0.0"),
        (np.zeros(2), math.nan, "delta must be finite and > 0, got nan"),
        (np.array([math.nan, 0.0]), 0.5, "center must be finite, got nan"),
        (np.array([0.0, math.inf]), 0.5, "center must be finite, got inf"),
        (np.zeros(3), 0.5, r"center must have shape \(2,\), got \(3,\)"),
        (0.0, 0.5, r"center must have shape \(2,\), got \(\)"),
    ], ids=["negative-delta", "zero-delta", "nan-delta", "nan-center",
            "inf-center", "3-d-center", "scalar-center"])
    def test_oracle_refuses_bad_inputs(self, center, delta, message):
        with pytest.raises(ValueError, match=message):
            gaussian_ball_probability(np.eye(2), center, delta)

    @pytest.mark.parametrize("center, s", [
        ([0.3], None), (0.3, None), ([0.3, 0.0, 0.0], None), (np.zeros((2, 1)), None),
        ([0.3, 0.0], 90.0), (np.zeros(4), None),
    ], ids=["short", "scalar", "three", "column", "two-with-s", "four-without-s"])
    def test_center_must_match_the_walk(self, center, s):
        with pytest.raises(ValueError, match="center must have shape"):
            small_ball_mc(50, 3.0, rademacher(), center, 0.1, 1000, seed=0,
                          s=s, force=True)

    # n = 1 with s: a rank-2 walk in R^4, whose covariance has
    # determinant ~ -1.6e-34 in floating point
    def test_singular_covariance_refused_without_force(self):
        with pytest.raises(FeasibilityError, match="covariance is singular"):
            small_ball_mc(1, 60.0, gaussian(), [0.1, 0, 0, 0], 0.5, 3000, s=90.0)

    def test_singular_covariance_runs_under_force(self):
        est = small_ball_mc(1, 60.0, gaussian(), [0.1, 0, 0, 0], 0.5, 3000,
                            s=90.0, force=True)
        assert est.trials == 3000 and 0 < est.hits < 3000

    def test_r4_probe(self):
        n = 100
        s = math.pi * n * (math.sqrt(2) - 1)
        t = math.pi * n * (math.sqrt(3) - 1)
        est = small_ball_mc(n, t, rademacher(), np.zeros(4), 0.2,
                            trials=100000, seed=5, s=s, force=True)
        assert est.probability / 0.2**4 <= 500.0
