import json
import math

import numpy as np
import pytest

from trigroots.ensemble import discrete, gaussian, rademacher, uniform
from trigroots.mcstats import (
    MomentAccumulator,
    run_experiment,
    scaling_check,
    slope_rows,
    slope_series,
    theoretical_slope,
)
from trigroots.polyeval import FULL, HALF, GridError


class TestAccumulator:
    def test_against_numpy(self, rng):
        x = rng.standard_normal(1000)
        acc = MomentAccumulator.from_values(x)
        assert acc.mean == pytest.approx(x.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(x.var(ddof=1), rel=1e-12)

    def test_merge_equals_single_pass(self, rng):
        x = rng.standard_normal(2001)
        whole = MomentAccumulator.from_values(x)
        halves = MomentAccumulator.from_values(x[:700]).merge(
            MomentAccumulator.from_values(x[700:]))
        for f in ("mean", "m2", "m3", "m4"):
            a, b = getattr(whole, f), getattr(halves, f)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_merge_with_empty(self):
        acc = MomentAccumulator.from_values(np.arange(5.0))
        assert acc.merge(MomentAccumulator()) is acc


class TestRunExperiment:
    def test_degree_one_is_deterministic(self):
        rec = run_experiment(gaussian(), 1, FULL, trials=1000, seed=0)
        assert rec.estimate.mean == 2.0
        assert rec.estimate.variance == 0.0

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            run_experiment(gaussian(), 4, FULL, trials=1, seed=0)

    def test_refuses_grid_at_2n(self):
        # M = 2n misses roots silently: 2,000 trials read 29 se low, unflagged
        with pytest.raises(GridError):
            run_experiment(gaussian(), 256, FULL, trials=16, seed=0, M=2 * 256)

    def test_refuses_grid_at_n(self):
        with pytest.raises(GridError):
            run_experiment(gaussian(), 16, FULL, trials=16, seed=0, M=16)

    def test_refuses_degree_zero(self):
        with pytest.raises(ValueError, match="n must be"):
            run_experiment(gaussian(), 0, FULL, trials=16, seed=0)

    def test_parallel_determinism(self):
        recs = [run_experiment(rademacher(), 32, FULL, trials=600, seed=5,
                               parallelism=p) for p in (1, 4, 16)]
        payloads = [json.dumps(r.canonical_dict(), sort_keys=True) for r in recs]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_record_roundtrips_and_excludes_timing(self):
        rec = run_experiment(gaussian(), 8, FULL, trials=50, seed=9)
        d = rec.to_dict()
        assert "wall_time" in d
        assert "wall_time" not in rec.canonical_dict()
        assert d["seed"] == 9 and d["distribution"] == "gaussian"

    def test_se_variance_shrinks_like_sqrt_trials(self):
        small = run_experiment(gaussian(), 32, FULL, trials=2000, seed=3)
        large = run_experiment(gaussian(), 32, FULL, trials=8000, seed=3)
        ratio = large.estimate.se_variance / small.estimate.se_variance
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_ensembles_separate_at_moderate_n(self):
        g = run_experiment(gaussian(), 64, FULL, trials=2000, seed=8)
        r = run_experiment(rademacher(), 64, FULL, trials=2000, seed=9)
        sep = g.estimate.var_over_n - r.estimate.var_over_n
        se = math.hypot(g.estimate.se_variance, r.estimate.se_variance) / 64
        assert sep >= 3 * se

    def test_half_window_mean(self):
        from trigroots.rootcount import gaussian_expectation_exact
        rec = run_experiment(gaussian(), 40, HALF, trials=1500, seed=12)
        exact = gaussian_expectation_exact(40, HALF)
        assert abs(rec.estimate.mean - exact) <= 4 * rec.estimate.se_mean

    def test_mean_is_universal_across_ensembles(self):
        # non-Gaussian ensembles share the Gaussian mean asymptotics
        from trigroots.rootcount import gaussian_expectation_exact
        exact = gaussian_expectation_exact(64)
        for dist, seed in ((rademacher(), 77), (uniform(), 78)):
            rec = run_experiment(dist, 64, FULL, trials=4000, seed=seed)
            assert abs(rec.estimate.mean - exact) <= 4 * rec.estimate.se_mean

    def test_count_shape_smoke_report(self):
        # normalized counts should look roughly normal at moderate n: the
        # skewness/kurtosis fields are a smoke report, not an acceptance
        rec = run_experiment(gaussian(), 128, FULL, trials=4000, seed=21)
        assert abs(rec.estimate.skewness) <= 0.5
        assert abs(rec.estimate.kurtosis_excess) <= 1.0

    def test_record_determines_rerun(self):
        from trigroots.ensemble import parse_distribution
        from trigroots.polyeval import WindowSpec
        rec = run_experiment(rademacher(), 24, FULL, trials=300, seed=33)
        replay = run_experiment(parse_distribution(rec.distribution), rec.n,
                                WindowSpec(rec.window), rec.trials, rec.seed,
                                M=rec.M)
        assert json.dumps(replay.canonical_dict(), sort_keys=True) == \
            json.dumps(rec.canonical_dict(), sort_keys=True)


class TestSlopes:
    def test_gaussian_full_is_cg(self):
        assert theoretical_slope(gaussian(), FULL, 0.55826) == 0.55826

    def test_rademacher_full(self):
        v = theoretical_slope(rademacher(), FULL, 0.55826)
        assert v == pytest.approx(0.55826 - 4 / 15, abs=1e-12)
        assert v == pytest.approx(0.29159, abs=1e-5)

    def test_zero_excess_means_cg(self):
        d = discrete([(-math.sqrt(3), 1 / 6), (0.0, 4 / 6), (math.sqrt(3), 1 / 6)])
        from trigroots.ensemble import moments
        assert moments(d).m4 == pytest.approx(3.0, abs=1e-12)
        assert theoretical_slope(d, FULL, 0.4321) == pytest.approx(0.4321)

    def test_half_window_coefficient(self):
        v = theoretical_slope(rademacher(), HALF, 0.2)
        assert v == pytest.approx(0.2 + (1 / 30) * (-2), abs=1e-15)

    def test_uniform_slope_uses_kurtosis(self):
        v = theoretical_slope(uniform(), FULL, 0.55826)
        assert v == pytest.approx(0.55826 + (2 / 15) * (-6 / 5), abs=1e-12)


class TestSeries:
    def test_singleton_sweep(self):
        recs = slope_series(gaussian(), [16], 100, seed=1)
        rows = slope_rows(recs)
        assert len(rows) == 1 and rows[0]["n"] == 16

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            slope_series(gaussian(), [32, 32], 10, seed=0)

    def test_scaling_check_singleton(self):
        rows = scaling_check(gaussian(), [16], trials=100, seed=2)
        assert len(rows) == 1
        assert rows[0]["var_over_n2"] == pytest.approx(
            rows[0]["variance"] / 256)

    def test_gaussian_sweep_trends_toward_slope(self):
        recs = slope_series(gaussian(), [64, 128, 256], 1000, seed=14)
        for rec in recs:
            se = rec.estimate.se_variance / rec.n
            # each point sits within 3 se of a value at or below 0.65
            assert rec.estimate.var_over_n - 3 * se <= 0.65

    def test_half_window_kurtosis_coefficient(self):
        # the ensembles' half-window slopes differ by (1/30) * delta(m4):
        # 1/15 for gaussian-vs-rademacher, measured end to end
        g = run_experiment(gaussian(), 128, HALF, trials=12000, seed=41)
        r = run_experiment(rademacher(), 128, HALF, trials=12000, seed=42)
        diff = g.estimate.var_over_n - r.estimate.var_over_n
        se = math.hypot(g.estimate.se_variance, r.estimate.se_variance) / 128
        assert abs(diff - 1 / 15) <= 3 * se + 0.01
