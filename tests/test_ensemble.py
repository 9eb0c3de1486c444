import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from trigroots import ensemble
from trigroots.ensemble import (
    _GAUSS_SMALL_W,
    SQRT3,
    CoefficientSample,
    DistributionError,
    DistributionSpec,
    discrete,
    gaussian,
    _draw,
    draw_trials,
    moments,
    parse_distribution,
    philox_keys,
    rademacher,
    sample,
    uniform,
    charfn_scalar,
    xi_norm_sq,
)
from trigroots.mcstats import theoretical_slope
from oracles import rademacher_signs_reference, rng_for_trial, xi_norm_sq_quadrature

ALL_DISTS = [gaussian(), rademacher(), uniform(),
             discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])]

#: |w| = 1/(T - 1), where the Gaussian xi-norm series steps from T/2 to T
#: terms; at and above 1 the value is 1/12, with no series
GAUSS_TIER_EDGES = [1.0, 1 / 3, 1 / 7, 1 / 15]


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

    def test_every_law_the_spec_accepts(self):
        # variance 1 - 0.9e-12 is within the spec's 1e-12 and m4 = 1 - 1.8e-12;
        # it once raised "fourth moment below Cauchy-Schwarz bound 1"
        a = math.sqrt(1.0 - 0.9e-12)
        d = discrete([(-a, 0.5), (a, 0.5)])
        assert moments(d).m4 == a**4
        assert math.isfinite(theoretical_slope(d))

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coefficients_must_be_finite(self, bad):
        y = np.ones((3, 2))
        y[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            CoefficientSample(n=3, y=y, seed=0, trial_index=0)


class TestTrialKeys:
    """A chunk keyed in one pass draws what a SeedSequence per trial draws."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**130 - 1),
           trials=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
    def test_keys_are_seed_sequence_keys(self, seed, trials):
        keys = philox_keys(seed, np.array(trials, dtype=np.uint64))
        ref = [np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(2, np.uint64)
               for t in trials]
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, np.array(ref))

    @pytest.mark.parametrize("lo, hi", [(0, 40), (2**32 - 3, 2**32 + 3), (2**64 - 2, 2**64)],
                             ids=["first", "straddles-2^32", "last"])
    @pytest.mark.parametrize("seed", [0, 7064, 5137000011, 2**100 + 3])
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
    def test_draws_are_the_per_trial_oracle_draws(self, dist, seed, lo, hi):
        for n in (1, 9, 64):
            ys = draw_trials(dist, n, seed, lo, hi)
            assert ys.shape == (hi - lo, n, 2) and ys.dtype == np.float64
            for y, trial in zip(ys, range(lo, hi)):
                assert y.tobytes() == _draw(dist, rng_for_trial(seed, trial), (n, 2)).tobytes()
            assert sample(dist, n, seed, hi - 1).y.tobytes() == ys[-1].tobytes()

    #: sha256 of draw_trials(law, 64, 7064, 0, 256), taken before the
    #: Rademacher chunk decode and the Gaussian out= draw
    DRAW_DIGESTS = {
        "gaussian": "3719fe6aa72f939058ca067c191ddb24c95317e1b9d76f05595652e6550c4bd7",
        "rademacher": "175141b1e9be1644a57feb6ee5800a0ed759687491e6eb7440bf64baeb49df55",
    }

    @pytest.mark.parametrize("kind", sorted(DRAW_DIGESTS))
    def test_chunk_bytes_are_pinned(self, kind):
        ys = draw_trials(DistributionSpec(kind), 64, 7064, 0, 256)
        assert hashlib.sha256(ys.tobytes()).hexdigest() == self.DRAW_DIGESTS[kind]

    @pytest.mark.parametrize("call, message", [
        (lambda: philox_keys(-1, np.arange(3)), "seed must be >= 0, got -1"),
        (lambda: philox_keys(5, np.array([3, -2])), "trial index must be >= 0, got -2"),
        (lambda: philox_keys(5, np.array([1.5])), "1-d integer array, got float64"),
        (lambda: draw_trials(gaussian(), 4, 5, -3, 2), "trial index must be >= 0, got -3"),
        (lambda: sample(gaussian(), 4, -7), "seed must be >= 0, got -7"),
        (lambda: sample(gaussian(), 4, 1, trial_index=2**64), "below 2\\*\\*64, got 18446744073709551616"),
        # int() once truncated these: seed 2.5 drew seed 2's coefficients,
        # trial 1.9 gave trial 1, and n = 2.0 ended in a bare TypeError
        (lambda: sample(gaussian(), 4, seed=2.5), "seed must be an integer, got 2.5"),
        (lambda: sample(gaussian(), 4, seed=True), "seed must be an integer, got True"),
        (lambda: philox_keys(np.float64(3.0), np.arange(3)), "seed must be an integer, got 3.0"),
        (lambda: sample(gaussian(), 4, 1, trial_index=1.9), "trial index must be an integer, got 1.9"),
        (lambda: sample(gaussian(), 4, 1, trial_index=True), "trial index must be an integer, got True"),
        (lambda: draw_trials(gaussian(), 4, 5, 0, 2.5), "trial index must be an integer, got 2.5"),
        (lambda: sample(gaussian(), 2.0, 1), "n must be an integer, got 2.0"),
        (lambda: sample(gaussian(), True, 1), "n must be an integer, got True"),
    ], ids=["seed", "trial", "float-trial", "chunk-start", "sample-seed", "trial-2^64",
            "float-seed", "bool-seed", "numpy-float-seed", "float-trial-index",
            "bool-trial-index", "float-chunk-end", "float-n", "bool-n"])
    def test_refuses_bad_indices(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestRademacherSigns:
    """The signs decoded from raw words are numpy's integer-sampler signs."""

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64],
                             ids=["philox", "pcg64"])
    def test_consecutive_draws_are_numpy_signs(self, bitgen):
        ours, ref = (np.random.Generator(bitgen(2024)) for _ in range(2))
        for shape in [(1, 2), (7, 2), (3, 5, 2), (2000, 200, 2), (1, 2)]:
            y = _draw(rademacher(), ours, shape)
            assert y.shape == shape and y.dtype == np.float64
            assert y.tobytes() == rademacher_signs_reference(ref, shape).tobytes()

    @pytest.mark.parametrize("lo, hi", [(0, 40), (2**64 - 2, 2**64)], ids=["first", "last"])
    @pytest.mark.parametrize("seed", [0, 7064, 2**100 + 3])
    def test_chunk_draw_is_numpy_signs(self, seed, lo, hi):
        for n in (1, 9, 64):
            ref = [rademacher_signs_reference(rng_for_trial(seed, trial), (n, 2))
                   for trial in range(lo, hi)]
            ys = draw_trials(rademacher(), n, seed, lo, hi)
            assert ys.shape == (hi - lo, n, 2) and ys.tobytes() == np.array(ref).tobytes()

    def test_chunk_draw_fits_in_memory(self):
        """A chunk decodes its (256, 1024) words, 2 MiB, straight into the
        4 MiB output: no shifted or float copy of them."""
        draw_trials(rademacher(), 1024, 5, 0, 256)
        tracemalloc.start()
        try:
            draw_trials(rademacher(), 1024, 5, 0, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2**20

    @pytest.mark.parametrize("bitgen, shape, got", [
        (np.random.Philox, (3, 5), "got 15 from Philox"),
        (np.random.Philox, (1,), "got 1 from Philox"),
        (np.random.MT19937, (4, 2), "got 8 from MT19937"),
    ], ids=["odd", "one", "mt19937"])
    def test_refuses_what_the_words_cannot_give(self, bitgen, shape, got):
        with pytest.raises(ValueError, match=f"even count from a Philox, PCG64 or SFC64 "
                                             f"generator, {got}"):
            _draw(rademacher(), np.random.Generator(bitgen(1)), shape)


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
    # the last four are w = 0 and the kinks of the uniform closed form,
    # where 2 sqrt3 w crosses 1/2, 1 and 3/2
    @pytest.mark.parametrize("w", [0.01, 0.13, 0.37, 1.0, 2.7, 11.0, 0.0,
                                   0.5 / (2 * SQRT3), 1.0 / (2 * SQRT3),
                                   1.5 / (2 * SQRT3)])
    def test_continuous_matches_quadrature_oracle(self, dist, w):
        fast = xi_norm_sq(dist, w)
        slow = xi_norm_sq_quadrature(dist, w)
        assert fast == pytest.approx(slow, abs=1e-9)

    # each side of the Gaussian series' tier boundaries |w| = 1/(T - 1), of
    # its small-w cutoff and of 0.02 and 1/31 inside the 2 w^2 band, and
    # points inside the tiers
    @pytest.mark.parametrize("w", [
        float(x) for edge in GAUSS_TIER_EDGES + [_GAUSS_SMALL_W, 0.02, 1 / 31]
        for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))
    ] + [0.0201, 0.0401, 0.05, 0.3, 1.0, 11.0, 200.0, -0.05, -11.0])
    def test_gaussian_tiers_match_quadrature_oracle(self, w):
        assert xi_norm_sq(gaussian(), w) == \
            pytest.approx(xi_norm_sq_quadrature(gaussian(), w), abs=1e-9)

    def test_gaussian_truncation_below_1e_18(self):
        # against the same series at 30 digits, carried to m |w| > 6: what
        # is left is the float sum's rounding, a few ulps of 1/12
        edges = np.array(GAUSS_TIER_EDGES)
        w = np.concatenate([np.nextafter(edges, 0.0), edges, [0.0201, 0.05, 0.3]])
        with mp.workdps(30):
            for x in w:
                ref = mp.mpf(1) / 12 + mp.fsum(
                    (-1) ** m * mp.exp(-4 * mp.pi**2 * m**2 * mp.mpf(x) ** 2)
                    / (mp.pi * m) ** 2 for m in range(1, int(6 / x) + 2))
                assert abs(xi_norm_sq(gaussian(), float(x)) - float(ref)) <= 5e-17

    def test_gaussian_is_one_twelfth_from_one_up(self):
        # the series' first two terms, summed smallest first, round to 1/12
        # there, so 1/12 is the summed series' float value
        w = np.concatenate([np.geomspace(1.0, 1e6, 500), [np.nextafter(1.0, 0.0)]])
        w = np.concatenate([w, -w])
        m = np.array([2.0, 1.0])
        terms = (np.exp(np.multiply.outer(-4.0 * math.pi**2 * m**2, w**2))
                 * (np.array([1.0, -1.0]) / (math.pi**2 * m**2))[:, None])
        two_terms = 1.0 / 12.0 + (terms[0] + terms[1])
        assert (two_terms == 1.0 / 12.0).all()
        assert (xi_norm_sq(gaussian(), w) == 1.0 / 12.0).all()
        assert all(xi_norm_sq(gaussian(), float(x)) == 1.0 / 12.0 for x in w[::25])

    def test_gaussian_cutoff_error_bound(self):
        # E[X^2 1{|X| > 1/2}] for X ~ N(0, 2 w^2), what 2 w^2 can miss
        def bound(w):
            sigma = math.sqrt(2.0) * w
            z = 1.0 / (2.0 * sigma)
            phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return 2.0 * sigma**2 * (z * phi + 0.5 * math.erfc(z / math.sqrt(2.0)))
        assert bound(_GAUSS_SMALL_W) <= 1e-18
        assert bound(0.041) > 1e-18

    def test_gaussian_small_w_within_1e_18_of_the_series(self):
        # 2 w^2 on the band the cutoff took from the series, against the
        # series at 30 digits: the cutoff bound plus the rounding of 2 w^2
        w = np.concatenate([np.linspace(0.02, _GAUSS_SMALL_W, 21)[1:],
                            [np.nextafter(0.02, 1.0), np.nextafter(_GAUSS_SMALL_W, 0.0)]])
        with mp.workdps(30):
            for x in w:
                ref = mp.mpf(1) / 12 + mp.fsum(
                    (-1) ** m * mp.exp(-4 * mp.pi**2 * m**2 * mp.mpf(x) ** 2)
                    / (mp.pi * m) ** 2 for m in range(1, int(6 / x) + 2))
                got = xi_norm_sq(gaussian(), float(x))
                assert got == 2.0 * x**2
                assert abs(mp.mpf(got) - ref) <= 1e-18 + np.spacing(got), x

    #: sha256 of xi_norm_sq(gaussian(), w) on ``_pinned_w``, taken before
    #: the 1/12 end, the summed tiers and the raised cutoff
    XI_DIGEST = "942d5a76f618dbedaa8b15d6736df91897e78b9f53dd5337cb5679cd4eeb757e"

    @staticmethod
    def _pinned_w():
        rng = np.random.default_rng(2026)
        edges = np.array(GAUSS_TIER_EDGES)
        w = np.concatenate([rng.uniform(0.04, 1.0, 20_000), rng.uniform(1.0, 50.0, 2_000),
                            np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0),
                            [np.nextafter(0.04, 1.0)]])
        assert (w > 0.04).all()
        return w * rng.choice([-1.0, 1.0], w.size)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_gaussian_values_above_the_cutoff_are_pinned(self, monkeypatch, block):
        # blocks of one entry sum each entry's table alone
        monkeypatch.setattr(ensemble, "_GAUSS_BLOCK", block)
        out = xi_norm_sq(gaussian(), self._pinned_w())
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.XI_DIGEST

    def test_vectorized_matches_scalar(self, rng):
        # the Gaussian series is sized per entry, so a mixed array gives
        # each entry its scalar value exactly
        w = np.concatenate([rng.uniform(-3, 3, size=20),
                            rng.uniform(-0.2, 0.2, size=20)])
        for dist in ALL_DISTS:
            vec = xi_norm_sq(dist, w)
            ref = np.array([xi_norm_sq(dist, float(x)) for x in w])
            if dist.kind == "gaussian":
                np.testing.assert_array_equal(vec, ref)
            else:
                np.testing.assert_allclose(vec, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dist", ALL_DISTS,
                             ids=["gaussian", "rademacher", "uniform", "discrete"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_w(self, dist, bad):
        with pytest.raises(ValueError, match=f"w must be finite, got {bad}"):
            xi_norm_sq(dist, bad)
        with pytest.raises(ValueError, match=f"w must be finite, got {bad}"):
            xi_norm_sq(dist, np.array([[0.5, 1.0], [bad, 0.0]]))

    def test_large_w_approaches_uniform_mean(self):
        # a widely spread w(xi1-xi2) has mean squared distance ~ 1/12
        assert xi_norm_sq(gaussian(), 200.0) == pytest.approx(1 / 12, abs=1e-6)
