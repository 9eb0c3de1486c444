import json
import math
from fractions import Fraction

import numpy as np
import pytest

from trigroots import mcstats
from trigroots.ensemble import discrete, draw_trials, gaussian, rademacher, uniform
from trigroots.mcstats import (
    GAUSSIAN_SLOPE,
    KURTOSIS_COEFF,
    MomentAccumulator,
    run_experiment,
    slope_rows,
    slope_series,
    theoretical_slope,
)
from trigroots.polyeval import FULL, GridError, grid_size
from trigroots.rootcount import count_batch


class TestAccumulator:
    def test_against_numpy(self, rng):
        x = rng.standard_normal(1000)
        acc = MomentAccumulator.from_values(x)
        assert acc.mean == pytest.approx(x.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(x.var(ddof=1), rel=1e-12)

    def test_large_integers_are_exact(self):
        # x^4 = 8.1e20 overflows int64; the power sums are Python ints
        acc = MomentAccumulator.from_values(np.array([3 * 10**5, 10**5, 10**5]))
        assert (acc.count, acc.mean, acc.variance) == (3, 5e5 / 3, 4e10 / 3)
        assert (acc.m3, acc.m4) == (float(Fraction(16, 9) * 10**15),
                                    float(Fraction(32, 9) * 10**20))


class TestRunExperiment:
    def test_degree_one_is_deterministic(self):
        rec = run_experiment(gaussian(), 1, trials=1000, seed=0)
        assert rec.estimate.mean == 2.0
        assert rec.estimate.variance == 0.0

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            run_experiment(gaussian(), 4, trials=1, seed=0)

    def test_refuses_grid_at_2n(self):
        # M = 2n misses roots silently: 2,000 trials read 29 se low, unflagged
        with pytest.raises(GridError):
            run_experiment(gaussian(), 256, trials=16, seed=0, M=2 * 256)

    def test_refuses_grid_at_n(self):
        with pytest.raises(GridError):
            run_experiment(gaussian(), 16, trials=16, seed=0, M=16)

    def test_refuses_degree_zero(self):
        with pytest.raises(ValueError, match="n must be"):
            run_experiment(gaussian(), 0, trials=16, seed=0)

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_refuses_worker_count_below_one(self, parallelism):
        with pytest.raises(ValueError, match="parallelism"):
            run_experiment(gaussian(), 4, trials=16, seed=0,
                           parallelism=parallelism)

    # refused before any work: unrefused, 16.5, 8.5 and 300.5 reach numpy
    # and a fractional parallelism concurrent.futures as TypeErrors, and
    # True runs as 1
    @pytest.mark.parametrize("name, value", [
        ("n", 16.5), ("n", True), ("trials", 8.5), ("trials", np.float64(16.0)),
        ("M", 300.5), ("M", True), ("parallelism", 1.5), ("parallelism", True)])
    def test_refuses_counts_that_are_not_integers(self, name, value):
        kwargs = {"n": 16, "trials": 600, "M": None, "parallelism": 2, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            run_experiment(gaussian(), seed=0, **kwargs)

    def test_parallel_determinism(self):
        recs = [run_experiment(rademacher(), 32, trials=600, seed=5,
                               parallelism=p) for p in (1, 4, 16)]
        payloads = [json.dumps(r.canonical_dict(), sort_keys=True) for r in recs]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_record_bytes_independent_of_chunk_size(self, monkeypatch):
        payloads = set()
        for chunk in (7, 100, 256):
            monkeypatch.setattr(mcstats, "CHUNK_SIZE", chunk)
            rec = run_experiment(rademacher(), 32, trials=1000, seed=5)
            payloads.add(json.dumps(rec.canonical_dict(), sort_keys=True))
        assert len(payloads) == 1

    def test_estimate_is_the_exact_moments_of_the_counts(self):
        # correctly rounded: the float nearest the exact Fraction, both laws
        for law in (gaussian(), rademacher()):
            rec = run_experiment(law, 32, trials=1000, seed=5)
            counts, _ = count_batch(draw_trials(law, 32, 5, 0, 1000), 32, FULL, grid_size(32))
            acc = MomentAccumulator.from_values(counts)
            counts = [int(c) for c in counts]
            mean = Fraction(sum(counts), len(counts))
            exact = {"mean": mean,
                     "variance": sum((c - mean) ** 2 for c in counts) / (len(counts) - 1),
                     "m3": sum((c - mean) ** 3 for c in counts),
                     "m4": sum((c - mean) ** 4 for c in counts)}
            assert (rec.estimate.mean, rec.estimate.variance) == \
                (float(exact["mean"]), float(exact["variance"]))
            assert {k: getattr(acc, k) for k in exact} == \
                {k: float(v) for k, v in exact.items()}

    def test_record_roundtrips_and_excludes_timing(self):
        rec = run_experiment(gaussian(), 8, trials=50, seed=9)
        d = rec.to_dict()
        assert "wall_time" in d
        assert "wall_time" not in rec.canonical_dict()
        assert not {"chunk_size", "tol", "window"} & d.keys()
        assert d["seed"] == 9 and d["distribution"] == "gaussian"

    def test_se_variance_shrinks_like_sqrt_trials(self):
        small = run_experiment(gaussian(), 32, trials=2000, seed=3)
        large = run_experiment(gaussian(), 32, trials=8000, seed=3)
        ratio = large.estimate.se_variance / small.estimate.se_variance
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_ensembles_separate_at_moderate_n(self):
        g = run_experiment(gaussian(), 64, trials=2000, seed=8)
        r = run_experiment(rademacher(), 64, trials=2000, seed=9)
        sep = g.estimate.var_over_n - r.estimate.var_over_n
        se = math.hypot(g.estimate.se_variance, r.estimate.se_variance) / 64
        assert sep >= 3 * se

    def test_mean_is_universal_across_ensembles(self):
        # non-Gaussian ensembles share the Gaussian mean asymptotics
        from trigroots.rootcount import gaussian_expectation_exact
        exact = gaussian_expectation_exact(64)
        for dist, seed in ((rademacher(), 77), (uniform(), 78)):
            rec = run_experiment(dist, 64, trials=4000, seed=seed)
            assert abs(rec.estimate.mean - exact) <= 4 * rec.estimate.se_mean

    def test_count_shape_smoke_report(self):
        # normalized counts should look roughly normal at moderate n: the
        # skewness/kurtosis fields are a smoke report, not an acceptance
        rec = run_experiment(gaussian(), 128, trials=4000, seed=21)
        assert abs(rec.estimate.skewness) <= 0.5
        assert abs(rec.estimate.kurtosis_excess) <= 1.0

    def test_record_determines_rerun(self):
        from trigroots.ensemble import parse_distribution
        rec = run_experiment(rademacher(), 24, trials=300, seed=33)
        replay = run_experiment(parse_distribution(rec.distribution), rec.n, rec.trials,
                                rec.seed, M=rec.M)
        assert json.dumps(replay.canonical_dict(), sort_keys=True) == \
            json.dumps(rec.canonical_dict(), sort_keys=True)


class TestSlopes:
    def test_gaussian_full_is_cg(self):
        assert GAUSSIAN_SLOPE == 0.55826
        assert theoretical_slope(gaussian()) == GAUSSIAN_SLOPE

    def test_rademacher_full(self):
        v = theoretical_slope(rademacher())
        assert v == pytest.approx(GAUSSIAN_SLOPE - 4 / 15, abs=1e-12)
        assert v == pytest.approx(0.29159, abs=1e-5)

    def test_zero_excess_means_cg(self):
        d = discrete([(-math.sqrt(3), 1 / 6), (0.0, 4 / 6), (math.sqrt(3), 1 / 6)])
        from trigroots.ensemble import moments
        assert moments(d).m4 == pytest.approx(3.0, abs=1e-12)
        assert theoretical_slope(d) == pytest.approx(GAUSSIAN_SLOPE)

    def test_uniform_slope_uses_kurtosis(self):
        v = theoretical_slope(uniform())
        assert v == pytest.approx(GAUSSIAN_SLOPE + (2 / 15) * (-6 / 5), abs=1e-12)

    @pytest.mark.parametrize("dist,m4", [
        (gaussian(), 3.0), (rademacher(), 1.0), (uniform(), 9 / 5),
        (discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)]), 4.0)],
        ids=["gaussian", "rademacher", "uniform", "discrete"])
    def test_record_carries_the_law_for_each_builtin(self, dist, m4):
        # m4 written out
        assert KURTOSIS_COEFF == 2 / 15
        expected = GAUSSIAN_SLOPE + KURTOSIS_COEFF * (m4 - 3.0)
        assert theoretical_slope(dist) == pytest.approx(expected, abs=1e-15)
        rec = run_experiment(dist, 4, trials=2, seed=0)
        assert rec.theoretical_slope == theoretical_slope(dist)


class TestSeries:
    def test_singleton_sweep(self):
        recs = slope_series(gaussian(), [16], 100, seed=1)
        rows = slope_rows(recs)
        assert len(rows) == 1 and rows[0]["n"] == 16

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            slope_series(gaussian(), [32, 32], 10, seed=0)

    def test_slope_rows_are_the_records(self):
        recs = slope_series(rademacher(), [16, 32], 100, seed=2)
        rows = slope_rows(recs)
        assert [list(r) for r in rows] == [[
            "dist", "n", "trials", "flagged_trial_count", "unreliable",
            "mean", "se_mean", "variance", "se_variance", "var_over_n", "se",
            "var_over_n2"]] * 2
        for row, rec in zip(rows, recs):
            est = rec.estimate
            assert (row["dist"], row["n"], row["trials"]) == ("rademacher", rec.n, 100)
            assert (row["flagged_trial_count"], row["unreliable"]) == (
                rec.flagged_trial_count, rec.unreliable)
            assert (row["mean"], row["se_mean"], row["variance"],
                    row["se_variance"], row["var_over_n"]) == (
                est.mean, est.se_mean, est.variance, est.se_variance, est.var_over_n)
            assert row["se"] == est.se_variance / rec.n
            assert row["var_over_n2"] == est.variance / rec.n**2

    def test_gaussian_sweep_trends_toward_slope(self):
        recs = slope_series(gaussian(), [64, 128, 256], 1000, seed=14)
        for rec in recs:
            se = rec.estimate.se_variance / rec.n
            # each point sits within 3 se of a value at or below 0.65
            assert rec.estimate.var_over_n - 3 * se <= 0.65
