"""Monte Carlo experiments: moments of root counts over seeded trials.

Each trial's coefficients come from its own (seed, trial_index)-keyed
stream, so a trial's count never depends on scheduling.  Trials are drawn
and counted in fixed-size chunks (one ``ensemble.draw_trials`` call each),
serially or by worker processes; the counts are joined in trial order and
their moments taken in one pass, so a record is a function of (law, n,
seed, trials) alone, whatever the chunk size or worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from trigroots import ensemble
from trigroots.ensemble import DistributionSpec, moments
from trigroots.polyeval import FULL, grid_size
from trigroots.rootcount import count_batch

#: trials drawn and counted per job: the worker and memory unit, which no
#: output depends on
CHUNK_SIZE = 256

#: the one-period limit of Var(count)/n is GAUSSIAN_SLOPE + KURTOSIS_COEFF *
#: (m4 - 3): the quadrature constant cg (criterion 1 checks ``compute_cg``
#: against it) plus the coefficient law's excess kurtosis term
GAUSSIAN_SLOPE = 0.55826
KURTOSIS_COEFF = 2.0 / 15.0

#: the Monte Carlo table's columns, in order: ``slope_rows``' keys and the
#: ``sweep`` CSV header
TABLE_COLUMNS = ("dist", "n", "trials", "flagged_trial_count", "unreliable", "mean",
                 "se_mean", "variance", "se_variance", "var_over_n", "se", "var_over_n2")


@dataclass
class MomentAccumulator:
    """Count, mean, unbiased variance and central moment sums (m3, m4) of a
    sample, each rounded once from the sample's exact power sums."""

    count: int = 0
    mean: float = 0.0
    variance: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    @classmethod
    def from_values(cls, x: np.ndarray) -> "MomentAccumulator":
        # exact power sums: Python ints (no int64 overflow) or Fractions
        values, mult = np.unique(np.asarray(x), return_counts=True)
        v = values.tolist() if values.dtype.kind in "biu" else map(Fraction, values.tolist())
        pairs, N = list(zip(v, mult.tolist())), int(mult.sum())
        if N == 0:
            return cls()
        s1, s2, s3, s4 = (sum(m * a**k for a, m in pairs) for k in range(1, 5))
        return cls(count=N, mean=float(s1 / N),
                   variance=float((N * s2 - s1 * s1) / (N * (N - 1))) if N > 1 else 0.0,
                   m3=float((N * N * s3 - 3 * N * s1 * s2 + 2 * s1**3) / N**2),
                   m4=float((N**3 * s4 - 4 * N * N * s1 * s3 + 6 * N * s1 * s1 * s2
                             - 3 * s1**4) / N**3))


@dataclass(frozen=True)
class VarianceEstimate:
    trials: int
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    var_over_n: float
    #: standardized count-shape diagnostics; a normality smoke report only
    skewness: float
    kurtosis_excess: float

    @classmethod
    def from_accumulator(cls, acc: MomentAccumulator, n: int) -> "VarianceEstimate":
        trials = acc.count
        var = acc.variance
        se_mean = math.sqrt(var / trials) if trials else 0.0
        skew = kurt = 0.0
        if trials >= 4 and var > 0:
            mu2 = var * (trials - 1) / trials
            mu3 = acc.m3 / trials
            mu4 = acc.m4 / trials
            skew = mu3 / mu2**1.5
            kurt = mu4 / mu2**2 - 3.0
            # Var(S^2) for non-Gaussian data needs the fourth central moment
            v = (mu4 - var * var * (trials - 3) / (trials - 1)) / trials
            se_var = math.sqrt(max(v, 0.0))
        else:
            se_var = 0.0
        return cls(trials=trials, mean=acc.mean, variance=var,
                   se_mean=se_mean, se_variance=se_var, var_over_n=var / n,
                   skewness=skew, kurtosis_excess=kurt)


@dataclass(frozen=True)
class ExperimentRecord:
    distribution: str
    n: int
    M: int
    seed: int
    trials: int
    estimate: VarianceEstimate
    theoretical_slope: float
    flagged_trial_count: int
    unreliable: bool
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_dict(self) -> dict:
        """Deterministic payload: identical bytes for identical (seed, config)."""
        return {k: v for k, v in asdict(self).items() if k != "wall_time"}


def _chunk_counts(dist: DistributionSpec, n: int, seed: int, lo: int, hi: int):
    """Counts and uncertainty flags for trials [lo, hi)."""
    return count_batch(ensemble.draw_trials(dist, n, seed, lo, hi), n, FULL, grid_size(n))


def run_experiment(dist: DistributionSpec, n: int, trials: int = 1000, seed: int = 0,
                   parallelism: int = 1) -> ExperimentRecord:
    """Estimate mean and variance of the root count over seeded trials.

    Counts come from the grid scan with the stationary-point audit on the
    ``grid_size(n)`` grid (roots are not refined; the count is unaffected).
    The result is bit-identical for any ``parallelism`` and ``CHUNK_SIZE``.
    The record carries ``theoretical_slope``.  A non-integer n, trials or
    parallelism is refused, and so is a seed that is not one >= 0.
    """
    n = ensemble.check_integer("n", n, 1)
    trials = ensemble.check_integer("trials", trials, 2)
    parallelism = ensemble.check_integer("parallelism", parallelism, 1)
    t0 = time.perf_counter()
    edges = list(range(0, trials, CHUNK_SIZE)) + [trials]
    jobs = [(dist, n, seed, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    if parallelism > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(parallelism, len(jobs))) as pool:
            results = list(pool.map(_chunk_counts, *zip(*jobs), chunksize=1))
    else:
        results = list(map(_chunk_counts, *zip(*jobs)))

    counts, uncertain = (np.concatenate(part) for part in zip(*results))
    flagged = int(uncertain.sum())
    est = VarianceEstimate.from_accumulator(MomentAccumulator.from_values(counts), n)
    wall = time.perf_counter() - t0
    return ExperimentRecord(
        distribution=dist.label(), n=n, M=grid_size(n),
        seed=int(seed), trials=trials, estimate=est,
        theoretical_slope=theoretical_slope(dist),
        flagged_trial_count=flagged,
        unreliable=flagged > 0.001 * trials,
        wall_time=wall,
    )


def theoretical_slope(dist: DistributionSpec) -> float:
    """Limit of Var(count)/n over one period: the Gaussian slope plus the
    kurtosis term."""
    return GAUSSIAN_SLOPE + KURTOSIS_COEFF * moments(dist).excess_kurtosis


def slope_series(dist: DistributionSpec, n_list, trials_per_n: int, seed: int,
                 parallelism: int = 1) -> list[ExperimentRecord]:
    """One experiment per n; n_list must be increasing."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    return [run_experiment(dist, n, trials_per_n, seed, parallelism=parallelism)
            for n in n_list]


def slope_rows(records: list[ExperimentRecord]) -> list[dict]:
    """The Monte Carlo table that ``sweep`` prints and criterion 12 reads, one
    row a record; ``se`` is the standard error of ``var_over_n``."""
    return [dict(zip(TABLE_COLUMNS, (
        r.distribution, r.n, r.trials, r.flagged_trial_count, r.unreliable,
        r.estimate.mean, r.estimate.se_mean, r.estimate.variance,
        r.estimate.se_variance, r.estimate.var_over_n,
        r.estimate.se_variance / r.n, r.estimate.variance / r.n**2)))
        for r in records]
