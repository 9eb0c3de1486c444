"""The acceptance suite: one callable per criterion, shared by the CLI
``verify`` command and the pytest acceptance module.

Each criterion pins its protocol (sizes, trial counts, seeds derived from
the base seed) and its tolerance here; results carry the measured values
so reports are self-contained.  All randomness is seeded, so a rerun with
the same base seed reproduces every number bit for bit.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict
from itertools import permutations

import numpy as np

from trigroots import ensemble
from trigroots.cganalytic import compute_cg
from trigroots.charprobe import (
    exponent_bound,
    gaussian_ball_probability,
    log_abs_charfn,
    small_ball_mc,
)
from trigroots.diophantine import build_D, good_pair, good_t
from trigroots.edgeworth import LAMBDA_2, LAMBDA_4, c_n_alpha, gauss_expect_psi_H
from trigroots.ensemble import discrete, gaussian, moments, rademacher, uniform
from trigroots.mcstats import (
    GAUSSIAN_SLOPE,
    run_experiment,
    slope_rows,
    slope_series,
    theoretical_slope,
)
from trigroots.polyeval import covariance_V
from trigroots.rootcount import AGREEMENT_SHARE, count_kacrice, gaussian_expectation_exact

#: the law GAUSSIAN_SLOPE - 4/15, to the five digits of GAUSSIAN_SLOPE
RADEMACHER_SLOPE = round(theoretical_slope(rademacher()), 5)

#: limits of c_n(i,i,j,j) / (m4 - 3) at non-resonant t, s, with a = i-1,
#: b = j-3: of the fourth moment of iid mean-zero linear forms only the
#: cumulant term (m4 - 3) sum_l C_il^2 C_jl^2 is non-Gaussian (third cumulants
#: pair with a zero mean), and its k-average tends to 3^{a+b}/(2(2(a+b)+1)).
CN_CLASS_TARGET = {
    (i, j): 3.0 ** ((i - 1) + (j - 3)) / (2.0 * (2 * ((i - 1) + (j - 3)) + 1))
    for i in (1, 2) for j in (3, 4)
}

_MIXED_CLASSES = [(1, 3), (1, 4), (2, 3), (2, 4)]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    target: str
    measured: dict
    runtime: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.name} ({self.runtime:.1f}s)"


def _heavy_discrete():
    # three-point law with positive excess kurtosis, for ensemble diversity
    return discrete([(-2.0, 0.125), (0.0, 0.75), (2.0, 0.125)])


def criterion_1_cg(ctx) -> CriterionResult:
    res = compute_cg()
    err = abs(res.value - GAUSSIAN_SLOPE)
    return CriterionResult(
        1, "Gaussian slope quadrature within 5e-4", err <= 5e-4,
        f"|cg - {GAUSSIAN_SLOPE}| <= 5e-4",
        {"cg": res.value, "abs_error_vs_target": err,
         "error_estimate": res.error_estimate})


def criterion_2_expectation(ctx) -> CriterionResult:
    seed = ctx["seed"]
    rec = run_experiment(gaussian(), 50, trials=2000, seed=seed + 2,
                         parallelism=ctx["parallelism"])
    exact = gaussian_expectation_exact(50)
    dev = abs(rec.estimate.mean - exact)
    ok_mean = dev <= 3.0 * rec.estimate.se_mean
    rec1 = run_experiment(gaussian(), 1, trials=100, seed=seed + 20)
    ok_n1 = rec1.estimate.mean == 2.0 and rec1.estimate.variance == 0.0
    return CriterionResult(
        2, "Gaussian mean count matches the exact formula", ok_mean and ok_n1,
        "|mean - exact| <= 3 se at n=50; n=1 gives 2 on 100/100 trials",
        {"mean": rec.estimate.mean, "exact": exact, "dev": dev,
         "se_mean": rec.estimate.se_mean, "n1_mean": rec1.estimate.mean,
         "n1_variance": rec1.estimate.variance})


def criterion_3_gaussian_slope(ctx) -> CriterionResult:
    rec = run_experiment(gaussian(), 256, trials=20000,
                         seed=ctx["seed"] + 3, parallelism=ctx["parallelism"])
    ctx["gaussian_256"] = rec
    rel = abs(rec.estimate.var_over_n - GAUSSIAN_SLOPE) / GAUSSIAN_SLOPE
    return CriterionResult(
        3, "Gaussian variance slope within 10%", rel <= 0.10,
        f"var/n within 10% of {GAUSSIAN_SLOPE} at n=256, 2e4 trials",
        {"var_over_n": rec.estimate.var_over_n, "relative_error": rel,
         "se": rec.estimate.se_variance / rec.n,
         "flagged_trials": rec.flagged_trial_count})


def criterion_4_rademacher_slope(ctx) -> CriterionResult:
    rec = run_experiment(rademacher(), 256, trials=20000,
                         seed=ctx["seed"] + 4, parallelism=ctx["parallelism"])
    grec = ctx.get("gaussian_256") or run_experiment(
        gaussian(), 256, trials=20000, seed=ctx["seed"] + 3,
        parallelism=ctx["parallelism"])
    rel = abs(rec.estimate.var_over_n - RADEMACHER_SLOPE) / RADEMACHER_SLOPE
    sep = grec.estimate.var_over_n - rec.estimate.var_over_n
    combined_se = math.hypot(grec.estimate.se_variance,
                             rec.estimate.se_variance) / rec.n
    ok = rel <= 0.10 and sep >= 3.0 * combined_se
    return CriterionResult(
        4, "Rademacher slope within 10% and below Gaussian", ok,
        f"var/n within 10% of {RADEMACHER_SLOPE}; >= 3 combined se below Gaussian",
        {"var_over_n": rec.estimate.var_over_n, "relative_error": rel,
         "separation": sep, "combined_se": combined_se,
         "flagged_trials": rec.flagged_trial_count})


def criterion_5_kacrice(ctx) -> CriterionResult:
    seed = ctx["seed"] + 5
    samples = 1000
    agree = flagged_disagree = unflagged_disagree = 0
    for trial in range(samples):
        dist = rademacher() if trial % 2 else gaussian()
        s = ensemble.sample(dist, 64, seed=seed, trial_index=trial)
        kr = count_kacrice(s, delta=1e-6)
        if kr.agrees:
            agree += 1
        elif kr.flagged:
            flagged_disagree += 1
        else:
            unflagged_disagree += 1
    ok = agree >= AGREEMENT_SHARE * samples and unflagged_disagree == 0
    return CriterionResult(
        5, "delta-integral count equals scan count", ok,
        ">= 99% agreement at n=64, delta=1e-6; disagreements only on flagged samples",
        {"agree": agree, "samples": samples,
         "flagged_disagreements": flagged_disagree,
         "unflagged_disagreements": unflagged_disagree})


def criterion_6_cn_limits(ctx) -> CriterionResult:
    n = 100000
    t_arg = math.pi * (math.sqrt(2) - 1.0) * n
    s_arg = math.pi * (math.sqrt(3) - 1.0) * n
    rows = []
    worst = 0.0
    for dist in (rademacher(), uniform()):
        for (i, j) in _MIXED_CLASSES:
            target = CN_CLASS_TARGET[(i, j)] * moments(dist).excess_kurtosis
            for alpha in sorted(set(permutations((i, i, j, j)))):
                v = c_n_alpha(n, t_arg, dist, alpha, s=s_arg)
                err = abs(v - target)
                worst = max(worst, err)
                rows.append({"dist": dist.kind, "alpha": list(alpha),
                             "computed": v, "target": target, "error": err})
    ok = worst <= 1e-2
    return CriterionResult(
        6, "moment-delta averages match the derived class limits", ok,
        "|c_n(alpha) - (m4-3)*3^{a+b}/(2(2(a+b)+1))| <= 1e-2, a=i-1, b=j-3, "
        "all classes",
        {"worst_error": worst, "classes": rows})


def criterion_7_psi_limits(ctx) -> CriterionResult:
    worst = 0.0
    rows = []
    for (i, j) in _MIXED_CLASSES:
        target = (1.0 / (3.0 * math.pi**2)) * (-1.0) ** (i + j)
        v = gauss_expect_psi_H((i, i, j, j), delta=None)
        err = abs(v - target)
        worst = max(worst, err)
        rows.append({"class": [i, j], "computed": v, "target": target})
    return CriterionResult(
        7, "Gaussian kernel functional limits", worst <= 1e-3,
        "|E[Psi H_alpha] - (1/3 pi^2)(-1)^{i+j}| <= 1e-3",
        {"worst_error": worst, "classes": rows})


def criterion_8_covariance(ctx) -> CriterionResult:
    n = 100000
    t = good_t(n)
    s, t2 = good_pair(n)
    V2 = covariance_V(n, t).entries
    d2 = float(np.linalg.norm(V2 - np.diag(LAMBDA_2), 2))
    V4 = covariance_V(n, t2, s).entries
    d4 = float(np.linalg.norm(V4 - np.diag(LAMBDA_4), 2))
    return CriterionResult(
        8, "covariance limits at n=1e5", d2 <= 1e-2 and d4 <= 2e-2,
        "||V2 - diag(1,1/3)|| <= 1e-2 and ||V4 - diag|| <= 2e-2",
        {"dist2": d2, "dist4": d4})


def criterion_9_charfn_bound(ctx) -> CriterionResult:
    rng = np.random.default_rng(ctx["seed"] + 9)
    dists = [gaussian(), rademacher(), uniform(), _heavy_discrete()]
    worst_slack = np.inf
    violations = 0
    cases = 1000
    for case in range(cases):
        dist = dists[case % 4]
        n = int(rng.integers(1, 501))
        d = 2 if case % 2 == 0 else 4
        t = float(rng.uniform(-n * math.pi, n * math.pi))
        s = float(rng.uniform(-n * math.pi, n * math.pi)) if d == 4 else None
        x = rng.standard_normal(d)
        x *= rng.uniform(0.0, 10.0) / np.linalg.norm(x)
        la = log_abs_charfn(n, t, dist, x, s)
        bd = exponent_bound(n, t, dist, x, s)
        slack = bd - la
        worst_slack = min(worst_slack, slack)
        if la > bd + 1e-9:
            violations += 1
    return CriterionResult(
        9, "characteristic-function bound dominance", violations == 0,
        "log|prod phi| <= exponent bound + 1e-9 on 1000 random cases",
        {"violations": violations, "worst_slack": float(worst_slack),
         "cases": cases})


def criterion_10_smallball(ctx) -> CriterionResult:
    seed = ctx["seed"] + 10
    n = 200
    t = good_t(n, anchor=math.sqrt(5) * 0.5 - 0.8)
    delta2, delta4 = 0.05, 0.15
    trials = 200000
    centers2 = [np.array([a, b])
                for a in np.linspace(-1.0, 1.0, 5)
                for b in np.linspace(-0.6, 0.6, 4)]
    worst2 = 0.0
    for k, c in enumerate(centers2):
        est = small_ball_mc(n, t, rademacher(), c, delta2, trials,
                            seed=seed + k, force=True)
        worst2 = max(worst2, est.probability / delta2**2)
    s_pt, t_pt = good_pair(n)
    rng = np.random.default_rng(seed)
    centers4 = [rng.uniform(-0.5, 0.5, 4) for _ in range(20)]
    worst4 = 0.0
    for k, c in enumerate(centers4):
        est = small_ball_mc(n, t_pt, rademacher(), c, delta4, trials,
                            seed=seed + 100 + k, s=s_pt, force=True)
        worst4 = max(worst4, est.probability / delta4**4)
    # Gaussian coefficients against the bivariate normal oracle
    V = covariance_V(n, t).entries
    oracle_ok = True
    oracle_rows = []
    for k, c in enumerate([np.zeros(2), np.array([0.5, 0.2]), np.array([-0.4, 0.3])]):
        est = small_ball_mc(n, t, gaussian(), c, delta2, trials,
                            seed=seed + 200 + k, force=True)
        p_ref = gaussian_ball_probability(V, c, delta2)
        dev = abs(est.probability - p_ref)
        oracle_rows.append({"center": c.tolist(), "mc": est.probability,
                            "oracle": p_ref, "se": est.se})
        oracle_ok = oracle_ok and dev <= 3.0 * max(est.se, 1e-12)
    ok = worst2 <= 50.0 and worst4 <= 500.0 and oracle_ok
    return CriterionResult(
        10, "small-ball probabilities at Monte Carlo scale", ok,
        "max p/d^2 <= 50 (R2), p/d^4 <= 500 (R4), Gaussian oracle within 3 se",
        {"worst_p_over_delta2": worst2, "worst_p_over_delta4": worst4,
         "oracle": oracle_rows})


def criterion_11_badset(ctx) -> CriterionResult:
    fracs = {}
    for n in (100, 1000, 10000):
        fracs[n] = build_D(n, 1.0, 0.05).bad_fraction
    r1 = fracs[1000] / fracs[100]
    r2 = fracs[10000] / fracs[1000]
    ok = all(0.1 / 3.0 <= r <= 0.1 * 3.0 for r in (r1, r2))
    return CriterionResult(
        11, "bad-pair fraction scaling", ok,
        "decade ratios within a factor 3 of 1e-1 at tau=0.05",
        {"fractions": {str(k): v for k, v in fracs.items()},
         "ratios": [r1, r2]})


def criterion_12_scaling(ctx) -> CriterionResult:
    ok = True
    tables = {}
    for dist in (gaussian(), rademacher()):
        rows = slope_rows(slope_series(dist, [32, 128, 512], 4000,
                                       ctx["seed"] + 12,
                                       parallelism=ctx["parallelism"]))
        tables[dist.kind] = rows
        v2 = [r["var_over_n2"] for r in rows]
        ok &= all(b <= a / 2.0 for a, b in zip(v2, v2[1:]))
        v1 = [r["var_over_n"] for r in rows]
        ok &= max(v1) / min(v1) <= 1.5
    return CriterionResult(
        12, "variance growth is linear, not quadratic", bool(ok),
        "var/n^2 halves per 4x n step; var/n within a 1.5x band",
        {"tables": tables})


def criterion_13_determinism(ctx) -> CriterionResult:
    seed = ctx["seed"] + 13
    recs = [run_experiment(gaussian(), 64, trials=1000, seed=seed,
                           parallelism=p) for p in (1, 8, 1)]
    payloads = [json.dumps(r.canonical_dict(), sort_keys=True) for r in recs]
    ok = payloads[0] == payloads[1] == payloads[2]
    return CriterionResult(
        13, "byte-identical reports across parallelism", ok,
        "canonical record bytes equal at parallelism 1 and 8",
        {"identical": ok, "mean": recs[0].estimate.mean})


ALL_CRITERIA = [
    criterion_1_cg,
    criterion_2_expectation,
    criterion_3_gaussian_slope,
    criterion_4_rademacher_slope,
    criterion_5_kacrice,
    criterion_6_cn_limits,
    criterion_7_psi_limits,
    criterion_8_covariance,
    criterion_9_charfn_bound,
    criterion_10_smallball,
    criterion_11_badset,
    criterion_12_scaling,
    criterion_13_determinism,
]


@dataclass
class AcceptanceReport:
    seed: int
    results: list[CriterionResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        """The report without runtimes, so that reruns give identical bytes."""
        criteria = [asdict(r) for r in self.results]
        for d in criteria:
            d.pop("runtime")
        return json.dumps({"seed": self.seed, "all_passed": self.all_passed,
                           "criteria": criteria}, indent=2, sort_keys=True)


def run_all(seed: int = 2026, parallelism: int = 1, only=None,
            progress=None) -> AcceptanceReport:
    ids = [int(fn.__name__.split("_")[1]) for fn in ALL_CRITERIA]
    unknown = sorted(set(only or ()) - set(ids))
    if unknown:
        raise ValueError(f"unknown criterion ids {unknown}: criteria are 1-{len(ids)}")
    ctx = {"seed": seed, "parallelism": parallelism}
    report = AcceptanceReport(seed=seed)
    for cid, fn in zip(ids, ALL_CRITERIA):
        if only and cid not in only:
            continue
        t0 = time.perf_counter()
        result = fn(ctx)
        result.runtime = time.perf_counter() - t0
        report.results.append(result)
        if progress:
            progress(result.line())
    return report
