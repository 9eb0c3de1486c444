"""Monte Carlo experiments: streaming moments of root counts over trials.

Trials are processed in fixed-size chunks whose per-chunk central moments
are merged in chunk order, so the floating-point result is identical
whether chunks are computed serially or by any number of workers.  Each
trial's coefficients come from its own (seed, trial_index)-keyed stream,
so the counts themselves never depend on scheduling either.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from trigroots import ensemble
from trigroots.ensemble import DistributionSpec, moments, parse_distribution
from trigroots.polyeval import FULL, WindowSpec, grid_size
from trigroots.rootcount import count_batch, default_tol

CHUNK_SIZE = 256

#: kurtosis-excess coefficients of the variance slope per window
SLOPE_COEFF = {"full": 2.0 / 15.0, "half": 1.0 / 30.0}


@dataclass
class MomentAccumulator:
    """Streaming central moments with order-independent pairwise merging."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    @classmethod
    def from_values(cls, x: np.ndarray) -> "MomentAccumulator":
        x = np.asarray(x, dtype=float)
        nb = int(x.size)
        if nb == 0:
            return cls()
        mu = float(x.mean())
        d = x - mu
        return cls(count=nb, mean=mu, m2=float(np.sum(d * d)),
                   m3=float(np.sum(d**3)), m4=float(np.sum(d**4)))

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        na, nb = self.count, other.count
        if nb == 0:
            return self
        if na == 0:
            return other
        n = na + nb
        d = other.mean - self.mean
        d2 = d * d
        mean = self.mean + d * nb / n
        m2 = self.m2 + other.m2 + d2 * na * nb / n
        m3 = (self.m3 + other.m3
              + d**3 * na * nb * (na - nb) / n**2
              + 3.0 * d * (na * other.m2 - nb * self.m2) / n)
        m4 = (self.m4 + other.m4
              + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / n**3
              + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / n**2
              + 4.0 * d * (na * other.m3 - nb * self.m3) / n)
        return MomentAccumulator(n, mean, m2, m3, m4)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)


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
            mu2 = acc.m2 / trials
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
    window: str
    n: int
    M: int
    tol: float
    seed: int
    trials: int
    chunk_size: int
    estimate: VarianceEstimate
    theoretical_slope: float | None
    flagged_trial_count: int
    unreliable: bool
    wall_time: float

    def to_dict(self, include_timing: bool = True) -> dict:
        d = asdict(self)
        if not include_timing:
            d.pop("wall_time")
        return d

    def canonical_dict(self) -> dict:
        """Deterministic payload: identical bytes for identical (seed, config)."""
        return self.to_dict(include_timing=False)


def _chunk_counts(dist_label: str, n: int, window_kind: str, M: int,
                  seed: int, lo: int, hi: int):
    """Counts and uncertainty flags for trials [lo, hi)."""
    dist = parse_distribution(dist_label)
    window = WindowSpec(window_kind)
    ys = np.empty((hi - lo, n, 2))
    for j, trial in enumerate(range(lo, hi)):
        rng = ensemble._rng_for_trial(seed, trial)
        ys[j] = ensemble._draw(dist, rng, (n, 2))
    counts, uncertain = count_batch(ys, n, window, M)
    return counts, uncertain


def run_experiment(dist: DistributionSpec, n: int, window: WindowSpec = FULL,
                   trials: int = 1000, seed: int = 0, parallelism: int = 1,
                   M: int | None = None, cg: float | None = None) -> ExperimentRecord:
    """Estimate mean and variance of the root count over seeded trials.

    Counts come from the grid scan with the stationary-point audit (root
    positions are not refined; the count is unaffected).  The result is
    bit-identical for any ``parallelism``.  A grid below the root-capture
    bound raises ``GridError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if M is None:
        M = grid_size(n)
    t0 = time.perf_counter()
    edges = list(range(0, trials, CHUNK_SIZE)) + [trials]
    jobs = [(dist.label(), n, window.kind, M, seed, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])]
    if parallelism > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_chunk_counts_star, jobs, chunksize=1))
    else:
        results = [_chunk_counts_star(j) for j in jobs]

    acc = MomentAccumulator()
    flagged = 0
    for counts, uncertain in results:  # merge in fixed chunk order
        acc = acc.merge(MomentAccumulator.from_values(counts))
        flagged += int(uncertain.sum())

    est = VarianceEstimate.from_accumulator(acc, n)
    slope = theoretical_slope(dist, window, cg) if cg is not None else None
    wall = time.perf_counter() - t0
    return ExperimentRecord(
        distribution=dist.label(), window=window.kind, n=n, M=M,
        tol=default_tol(n), seed=int(seed), trials=trials,
        chunk_size=CHUNK_SIZE, estimate=est, theoretical_slope=slope,
        flagged_trial_count=flagged,
        unreliable=flagged > 0.001 * trials,
        wall_time=wall,
    )


def _chunk_counts_star(args):
    return _chunk_counts(*args)


def theoretical_slope(dist: DistributionSpec, window: WindowSpec, cg: float) -> float:
    """Limit of Var(count)/n: the Gaussian slope plus the kurtosis term.

    ``cg`` is the window's Gaussian baseline: the quadrature constant for
    the full window, a Monte Carlo calibration for the half window.
    """
    prof = moments(dist)
    return cg + SLOPE_COEFF[window.kind] * prof.excess_kurtosis


def slope_series(dist: DistributionSpec, n_list, trials_per_n: int, seed: int,
                 window: WindowSpec = FULL, parallelism: int = 1,
                 cg: float | None = None) -> list[ExperimentRecord]:
    """One experiment per n; n_list must be increasing."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    return [run_experiment(dist, n, window, trials_per_n, seed,
                           parallelism=parallelism, cg=cg)
            for n in n_list]


def slope_rows(records: list[ExperimentRecord]) -> list[dict]:
    return [{
        "dist": r.distribution,
        "n": r.n,
        "var_over_n": r.estimate.var_over_n,
        "se": r.estimate.se_variance / r.n,
        "mean": r.estimate.mean,
        "se_mean": r.estimate.se_mean,
        "trials": r.trials,
    } for r in records]


def scaling_check(dist: DistributionSpec, n_list, trials: int, seed: int = 0,
                  window: WindowSpec = FULL, parallelism: int = 1) -> list[dict]:
    """Variance growth table: variance, variance/n, variance/n^2 per n."""
    rows = []
    for n in n_list:
        rec = run_experiment(dist, n, window, trials, seed, parallelism=parallelism)
        v = rec.estimate.variance
        rows.append({"dist": rec.distribution, "n": n, "variance": v,
                     "var_over_n": v / n, "var_over_n2": v / n**2,
                     "se_variance": rec.estimate.se_variance})
    return rows
