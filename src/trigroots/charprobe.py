"""Characteristic-function products, decay scans, small-ball probabilities.

The walk's characteristic function factorizes over increments,

    log |phi(x)| = sum_i log |phi_xi(<u_i, x>)| + log |phi_xi(<u_i', x>)|,

and is bounded above by the xi-norm exponent

    -(1/2) sum_i ||<u_i, x/2pi>||_xi^2 + ||<u_i', x/2pi>||_xi^2,

an inequality that holds pointwise for every coefficient law (the probes
here assert it directly).  Decay scans sample random directions at
log-spaced radii; small-ball probes estimate P(S_n/sqrt(n) in B(a, delta))
by Monte Carlo against the Gaussian-quadrature oracle where one exists.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from trigroots import ensemble
from trigroots.diophantine import check_condition_t, check_condition_st
from trigroots.ensemble import DistributionSpec, log_abs_charfn_scalar, xi_norm_sq
from trigroots.polyeval import basis_matrices, covariance_V
from trigroots.rootcount import check_delta

TWO_PI = 2.0 * math.pi

#: radial Gauss-Legendre and angular trapezoid nodes of the planar oracle
_ORACLE_RADIAL_NODES = 32
_ORACLE_ANGULAR_NODES = 128


class FeasibilityError(RuntimeError):
    """Monte Carlo parameters cannot resolve the requested quantity."""

    def __init__(self, message, required_trials=None):
        super().__init__(message)
        self.required_trials = required_trials


def _projections(n: int, t: float, x: np.ndarray, s: float | None):
    """<u_i, x> and <u_i', x> (v-vectors when s is given)."""
    U, Up = basis_matrices(n, t)
    if s is None:
        if x.shape != (2,):
            raise ValueError("x must be 2-dimensional without s")
        return U @ x, Up @ x
    if x.shape != (4,):
        raise ValueError("x must be 4-dimensional with s")
    Us, Ups = basis_matrices(n, s)
    return U @ x[:2] + Us @ x[2:], Up @ x[:2] + Ups @ x[2:]


def log_abs_charfn(n: int, t: float, dist: DistributionSpec, x,
                   s: float | None = None) -> float:
    """log of the absolute characteristic-function product at frequency x."""
    x = np.asarray(x, dtype=float)
    pu, pup = _projections(n, t, x, s)
    return float(np.sum(log_abs_charfn_scalar(dist, pu))
                 + np.sum(log_abs_charfn_scalar(dist, pup)))


def exponent_bound(n: int, t: float, dist: DistributionSpec, x,
                   s: float | None = None) -> float:
    """The xi-norm upper bound for log |phi|; always >= the exact value."""
    x = np.asarray(x, dtype=float)
    pu, pup = _projections(n, t, x, s)
    total = (np.sum(xi_norm_sq(dist, pu / TWO_PI))
             + np.sum(xi_norm_sq(dist, pup / TWO_PI)))
    return -0.5 * float(total)


@dataclass(frozen=True)
class DecayReport:
    radii: np.ndarray
    worst_log_abs: np.ndarray   # per radius, max over directions
    bound_log: np.ndarray       # per radius, max of the exponent bound
    regime_flags: np.ndarray    # radius within [n^{5 tau - 1/2}, n^{c_star}]
    condition_ok: bool


def decay_scan(n: int, t: float, dist: DistributionSpec, tau: float = 0.05,
               c_star: float = 1.0, radii_count: int = 12,
               directions_per_radius: int = 32, seed: int = 0,
               s: float | None = None, radii=None) -> DecayReport:
    """Worst-case |phi| over random directions at log-spaced radii.

    Points failing the non-resonance condition are scanned anyway but the
    report carries ``condition_ok=False`` (decay is not guaranteed there).
    """
    if s is None:
        condition_ok = bool(check_condition_t(n, t, tau).satisfied)
        dim = 2
    else:
        condition_ok = bool(check_condition_st(n, s, t, tau).satisfied)
        dim = 4
    if not condition_ok:
        warnings.warn("scan point fails the non-resonance condition; "
                      "decay is not guaranteed", stacklevel=2)
    lo = float(n) ** (5.0 * tau - 0.5)
    hi = float(n) ** c_star
    if radii is None:
        radii = np.geomspace(lo, hi, radii_count)
    radii = np.asarray(radii, dtype=float)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions_per_radius, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = np.full(radii.size, -np.inf)
    bound = np.full(radii.size, -np.inf)
    for i, r in enumerate(radii):
        for e in dirs:
            x = r * e
            worst[i] = max(worst[i], log_abs_charfn(n, t, dist, x, s))
            bound[i] = max(bound[i], exponent_bound(n, t, dist, x, s))
    flags = (radii >= lo * (1 - 1e-12)) & (radii <= hi * (1 + 1e-12))
    return DecayReport(radii=radii, worst_log_abs=worst, bound_log=bound,
                       regime_flags=flags, condition_ok=condition_ok)


@dataclass(frozen=True)
class SmallBallEstimate:
    probability: float
    se: float
    hits: int
    trials: int


def _walk_values(n, t, dist, s, trials, seed, chunk=20000):
    """S_n/sqrt(n) samples, shape (trials, d)."""
    U, Up = basis_matrices(n, t)
    cols = [np.column_stack([U[:, 0], Up[:, 0]]), np.column_stack([U[:, 1], Up[:, 1]])]
    if s is not None:
        Us, Ups = basis_matrices(n, s)
        cols += [np.column_stack([Us[:, 0], Ups[:, 0]]),
                 np.column_stack([Us[:, 1], Ups[:, 1]])]
    d = len(cols)
    inv = 1.0 / math.sqrt(n)
    rng = ensemble._rng_for_trial(seed, 0)
    out = np.empty((trials, d))
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        y = ensemble._draw(dist, rng, (hi - lo, n, 2))
        for j, c in enumerate(cols):
            out[lo:hi, j] = (y[:, :, 0] @ c[:, 0] + y[:, :, 1] @ c[:, 1]) * inv
    return out


def _gaussian_ball_feasibility(n, t, s, center, delta, trials):
    """Expected hit count under the Gaussian proxy density."""
    center = np.asarray(center, dtype=float)
    d = 2 if s is None else 4
    V = covariance_V(n, t, s).entries
    dens = _gaussian_density(V, center)
    if d == 2:
        p = math.pi * delta**2 * dens
    else:
        p = (math.pi**2 / 2.0) * delta**4 * dens
    return trials * p, p


def _gaussian_density(V, x):
    d = V.shape[0]
    Vi = np.linalg.inv(V)
    q = float(x @ Vi @ x)
    return math.exp(-0.5 * q) / ((2 * math.pi) ** (d / 2) * math.sqrt(np.linalg.det(V)))


def small_ball_mc(n: int, t: float, dist: DistributionSpec, center, delta: float,
                  trials: int, seed: int = 0, s: float | None = None,
                  force: bool = False) -> SmallBallEstimate:
    """Monte Carlo P(S_n/sqrt(n) in B(center, delta)) with binomial se."""
    check_delta(delta)
    center = np.asarray(center, dtype=float)
    expect, p_est = _gaussian_ball_feasibility(n, t, s, center, delta, trials)
    if expect < 10 and not force:
        need = int(math.ceil(10.0 / max(p_est, 1e-300)))
        raise FeasibilityError(
            f"expected hits {expect:.2f} < 10 at delta={delta}; "
            f"need about {need} trials", required_trials=need)
    S = _walk_values(n, t, dist, s, trials, seed)
    hits = int(np.sum(np.sum((S - center) ** 2, axis=1) < delta**2))
    p = hits / trials
    se = math.sqrt(max(p * (1 - p), 1e-300) / trials)
    return SmallBallEstimate(probability=p, se=se, hits=hits, trials=trials)


def gaussian_ball_probability(V: np.ndarray, center, delta: float) -> float:
    """P(Z in B(center, delta)) for Z ~ N(0, V) in the plane, by polar
    Gauss-Legendre x trapezoid quadrature of the density."""
    if V.shape != (2, 2):
        raise ValueError("oracle implemented for dimension 2")
    center = np.asarray(center, dtype=float)
    r_nodes, r_weights = np.polynomial.legendre.leggauss(_ORACLE_RADIAL_NODES)
    r = 0.5 * delta * (r_nodes + 1.0)
    wr = 0.5 * delta * r_weights
    ang = np.linspace(0.0, TWO_PI, _ORACLE_ANGULAR_NODES, endpoint=False)
    pts = center[None, None, :] + r[:, None, None] * np.stack(
        [np.cos(ang), np.sin(ang)], axis=-1)[None, :, :]
    Vi = np.linalg.inv(V)
    q = np.einsum("rad,de,rae->ra", pts, Vi, pts)
    dens = np.exp(-0.5 * q) / (TWO_PI * math.sqrt(np.linalg.det(V)))
    inner = dens.sum(axis=1) * (TWO_PI / _ORACLE_ANGULAR_NODES)
    return float(np.sum(wr * r * inner))


@dataclass(frozen=True)
class OneDScanResult:
    centers: np.ndarray
    probabilities: np.ndarray
    ses: np.ndarray
    max_probability: float
    delta: float


def smallball_1d_scan(n: int, t: float, dist: DistributionSpec, delta: float,
                      trials: int, seed: int = 0, centers=None) -> OneDScanResult:
    """Max over centers of P(|P_n(t) - a| < delta), Monte Carlo at fixed t."""
    check_delta(delta)
    if centers is None:
        centers = np.linspace(-2.0, 2.0, 20)
    centers = np.asarray(centers, dtype=float)
    expect = trials * 2.0 * delta * 0.4
    if expect < 10:
        raise FeasibilityError(
            f"expected hits {expect:.1f} < 10; increase trials or delta",
            required_trials=int(math.ceil(10 / (2 * delta * 0.4))))
    vals = _walk_values(n, t, dist, None, trials, seed)[:, 0]
    probs = np.array([(np.abs(vals - a) < delta).mean() for a in centers])
    ses = np.sqrt(np.maximum(probs * (1 - probs), 1e-300) / trials)
    return OneDScanResult(centers=centers, probabilities=probs, ses=ses,
                          max_probability=float(probs.max()), delta=delta)
