"""Characteristic-function products, decay scans, small-ball probabilities.

The walk's characteristic function factorizes over increments,

    log |phi(x)| = sum_i log |phi_xi(<u_i, x>)| + log |phi_xi(<u_i', x>)|,

and is bounded above by the xi-norm exponent

    -(1/2) sum_i ||<u_i, x/2pi>||_xi^2 + ||<u_i', x/2pi>||_xi^2,

an inequality that holds pointwise for every coefficient law (the probes
here assert it directly).  Decay scans sample random directions at
log-spaced radii; small-ball probes estimate P(S_n/sqrt(n) in B(a, delta))
by Monte Carlo against the Gaussian-quadrature oracle where one exists.
Every probe reads u_i, u_i' from ``polyeval.coefficient_columns``: a
decay scan pairs them once into (n, 2) arrays and evaluates each radius's
directions as one (directions, n) array, and the walk stacks them into
one (2000, 2n) @ (2n, d) product per ``WALK_CHUNK`` of draws, a size its
bits depend on (BLAS rounds a row by its block size).  The walk yields
its chunks, drawn in turn into one reused buffer, and the small-ball
probes count their hits chunk by chunk: a call holds one chunk's draws,
never the whole walk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from trigroots import ensemble
from trigroots.diophantine import check_condition_t, check_condition_st
from trigroots.ensemble import (DistributionSpec, check_finite, check_integer, check_positive,
                                log_abs_charfn_scalar, xi_norm_sq)
from trigroots.polyeval import coefficient_columns, covariance_V

TWO_PI = 2.0 * math.pi

#: walks a ``_walk_values`` chunk: part of the bits.  At n = 200 its draw
#: buffer is 6.1 MiB, and a 200,000-walk ``small_ball_mc`` call peaks at
#: 6.3 MiB traced (gaussian) or 9.3 MiB (rademacher: the chunk's raw words)
WALK_CHUNK = 2000

#: radial Gauss-Legendre and angular trapezoid nodes of the planar oracle
_ORACLE_RADIAL_NODES = 32
_ORACLE_ANGULAR_NODES = 128


class FeasibilityError(RuntimeError):
    """Monte Carlo parameters cannot resolve the requested quantity."""

    def __init__(self, message, required_trials=None):
        super().__init__(message)
        self.required_trials = required_trials


def _point_rows(n: int, t: float, s: float | None):
    """u_i and u_i' of each point as contiguous (n, 2) arrays of its two rows'
    ``coefficient_columns`` (BLAS rounds a strided matrix's products differently)."""
    rows = coefficient_columns(n, t, s)
    return [tuple(map(np.column_stack, zip(*pair))) for pair in zip(rows[0::2], rows[1::2])]


def _projections(rows, x: np.ndarray):
    """<u_i, x> and <u_i', x> (plus <v_i, x>, <v_i', x> when s is given)."""
    (U, Up), *more = rows
    if np.shape(x) != (2 + 2 * len(more),):
        raise ValueError("x must be 4-dimensional with s" if more
                         else "x must be 2-dimensional without s")
    pu, pup = U @ x[:2], Up @ x[:2]
    for Us, Ups in more:
        pu, pup = pu + Us @ x[2:], pup + Ups @ x[2:]
    return pu, pup


def _log_abs(dist: DistributionSpec, pu, pup):
    """log |phi| at each projection vector: sums along the last axis."""
    return (np.sum(log_abs_charfn_scalar(dist, pu), axis=-1)
            + np.sum(log_abs_charfn_scalar(dist, pup), axis=-1))


def _bound(dist: DistributionSpec, pu, pup):
    """The xi-norm exponent bound at each projection vector."""
    total = (np.sum(xi_norm_sq(dist, pu / TWO_PI), axis=-1)
             + np.sum(xi_norm_sq(dist, pup / TWO_PI), axis=-1))
    return -0.5 * total


def log_abs_charfn(n: int, t: float, dist: DistributionSpec, x,
                   s: float | None = None) -> float:
    """log of the absolute characteristic-function product at frequency x."""
    return float(_log_abs(dist, *_projections(_point_rows(n, t, s), check_finite("x", x))))


def exponent_bound(n: int, t: float, dist: DistributionSpec, x,
                   s: float | None = None) -> float:
    """The xi-norm upper bound for log |phi|; always >= the exact value."""
    return float(_bound(dist, *_projections(_point_rows(n, t, s), check_finite("x", x))))


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

    Each radius stacks its directions' projections into (directions, n)
    arrays and takes one characteristic-function and one xi-norm call on
    each, so memory stays at a few (directions, n) arrays for any n: the
    Gaussian xi-norm sums its series in blocks of a few thousand entries.
    Points failing the non-resonance condition are scanned anyway but the
    report carries ``condition_ok=False`` (decay is not guaranteed there).
    """
    radii_count = check_integer("radii_count", radii_count, 1)
    directions_per_radius = check_integer("directions_per_radius", directions_per_radius, 1)
    check_finite("c_star", c_star)
    report = check_condition_t(n, t, tau) if s is None else check_condition_st(n, s, t, tau)
    condition_ok = bool(report.satisfied)
    if not condition_ok:
        warnings.warn("scan point fails the non-resonance condition; "
                      "decay is not guaranteed", stacklevel=2)
    lo = float(n) ** (5.0 * tau - 0.5)  # tau < 1/8, refused otherwise above
    try:
        hi = float(n) ** c_star
    except OverflowError:
        hi = math.inf
    if not (math.isfinite(hi) and hi > 0.0):
        raise ValueError(f"c_star = {c_star} puts the radius bound n^c_star at {hi:g} "
                         f"for n = {n}; it must be finite and > 0")
    if radii is None:
        radii = np.geomspace(lo, hi, radii_count)
    elif np.ndim(radii) != 1 or np.size(radii) == 0:
        raise ValueError(f"radii must be a 1-d array of at least one radius, got {radii!r}")
    radii = check_positive("radii", radii)
    rows = _point_rows(n, t, s)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions_per_radius, 2 * len(rows)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = np.empty(radii.size)
    bound = np.empty(radii.size)
    for i, r in enumerate(radii):
        # one _projections call a direction: a single product for every
        # direction rounds differently
        pu, pup = map(np.array, zip(*(_projections(rows, r * e) for e in dirs)))
        worst[i] = _log_abs(dist, pu, pup).max()
        bound[i] = _bound(dist, pu, pup).max()
    flags = (radii >= lo * (1 - 1e-12)) & (radii <= hi * (1 + 1e-12))
    return DecayReport(radii=radii, worst_log_abs=worst, bound_log=bound,
                       regime_flags=flags, condition_ok=condition_ok)


@dataclass(frozen=True)
class SmallBallEstimate:
    probability: float
    se: float
    hits: int
    trials: int


def _walk_values(n, t, dist, s, trials, seed):
    """S_n/sqrt(n) samples, (rows, d) a chunk of up to ``WALK_CHUNK`` walks:
    one (rows, 2n) @ (2n, d) product W, with W[2k + l] = C[k, :, l] for
    coefficient (k, l).  Every chunk draws into the leading rows of one
    (WALK_CHUNK, 2n) buffer, and the chunks continue one stream: trial 0's
    under ``seed``.  Chunks of 2,000 give criterion 10's walks of 20,000
    exactly; 1,000 do not."""
    W = np.stack([np.stack(row, axis=1).ravel() for row in coefficient_columns(n, t, s)], axis=1)
    inv = 1.0 / math.sqrt(n)
    key = ensemble.philox_keys(seed, np.zeros(1, dtype=np.uint64))[0]
    rng = np.random.Generator(np.random.Philox(key=key))
    buf = np.empty((min(WALK_CHUNK, trials), 2 * n))
    for lo in range(0, trials, WALK_CHUNK):
        y = buf[:trials - lo]  # the last chunk's rows may be fewer
        yield (ensemble._draw(dist, rng, y.shape, out=y) @ W) * inv


def _gaussian_ball_feasibility(n, t, s, center, delta, trials):
    """Expected hit count under the Gaussian proxy density."""
    V = covariance_V(n, t, s).entries
    det = float(np.linalg.det(V))
    if not det > 0.0:
        raise FeasibilityError(
            f"the walk's covariance is singular (determinant {det:.3g}), so the "
            "Gaussian proxy gives no expected hit count; pass force=True to run anyway")
    center = np.asarray(center, dtype=float)
    q = float(center @ np.linalg.inv(V) @ center)
    dens = math.exp(-0.5 * q) / ((2 * math.pi) ** (V.shape[0] / 2) * math.sqrt(det))
    p = (math.pi * delta**2 if s is None else (math.pi**2 / 2.0) * delta**4) * dens
    return trials * p, p


def small_ball_mc(n: int, t: float, dist: DistributionSpec, center, delta: float,
                  trials: int, seed: int = 0, s: float | None = None,
                  force: bool = False) -> SmallBallEstimate:
    """Monte Carlo P(S_n/sqrt(n) in B(center, delta)) with binomial se.

    Unless ``force`` is set, the Gaussian proxy must expect at least 10
    hits, and a singular covariance is refused; ``force`` skips that
    estimate altogether."""
    check_positive("delta", delta)
    trials = check_integer("trials", trials, 1)
    center = np.asarray(center, dtype=float)
    d = 2 if s is None else 4
    if center.shape != (d,):
        raise ValueError(f"center must have shape ({d},), got {center.shape}")
    check_finite("center", center)
    if not force:
        expect, p_est = _gaussian_ball_feasibility(n, t, s, center, delta, trials)
        if expect < 10:
            need = int(math.ceil(10.0 / max(p_est, 1e-300)))
            raise FeasibilityError(
                f"expected hits {expect:.2f} < 10 at delta={delta}; "
                f"need about {need} trials", required_trials=need)
    hits = sum(int(np.count_nonzero(np.sum((S - center) ** 2, axis=1) < delta**2))
               for S in _walk_values(n, t, dist, s, trials, seed))
    p = hits / trials
    se = math.sqrt(max(p * (1 - p), 1e-300) / trials)
    return SmallBallEstimate(probability=p, se=se, hits=hits, trials=trials)


def gaussian_ball_probability(V: np.ndarray, center, delta: float) -> float:
    """P(Z in B(center, delta)) for Z ~ N(0, V) in the plane, by polar
    Gauss-Legendre x trapezoid quadrature of the density."""
    if V.shape != (2, 2):
        raise ValueError("oracle implemented for dimension 2")
    check_positive("delta", delta)
    center = np.asarray(center, dtype=float)
    if center.shape != (2,):
        raise ValueError(f"center must have shape (2,), got {center.shape}")
    check_finite("center", center)
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
