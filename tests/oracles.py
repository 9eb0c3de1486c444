"""Independent slow oracles that the tests compare the program against.

Each one takes a different route to a quantity the program computes fast:
compensated extended-precision point sums for the FFT grid and the
vectorized evaluator, the roots of an algebraic polynomial for the root
count, the dense all-cells formula for the engine's sign scan and audit
selection, density quadrature for the xi-norm, a direction-at-a-time loop
for the batched decay scan, a SeedSequence per trial for the chunk-keyed coefficient
draw, numpy's integer sampler for the Rademacher signs and the walk
built on it in 20,000-walk chunks, and the full 2^m-term moment expansion
for the pure-moment c_n, the full-row band sweep with a lexsort and
a segmented merge for the good-pair region, and 1-D quadratures for the
closed-form Gaussian kernel factors.  ``edgeworth_q2`` assembles
the paper's Edgeworth factor from the program's c_n values.
"""

import math
from itertools import product
from math import fsum
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from trigroots.charprobe import TWO_PI, _point_rows, _projections
from trigroots.diophantine import _FP_SLACK, DRegion, _canonical_pairs, _params
from trigroots.edgeworth import LAMBDA_2, LAMBDA_4, _phi, c_n_alpha, hermite, multiplicities
from trigroots.ensemble import (
    SQRT3,
    CoefficientSample,
    DistributionError,
    DistributionSpec,
    _draw,
    log_abs_charfn_scalar,
    moments,
    philox_keys,
    xi_norm_sq,
)
from trigroots.polyeval import coefficient_matrices

_LONG_TWO_PI = np.longdouble("6.283185307179586476925286766559005768")


def _phases(n: int, t: float) -> np.ndarray:
    """i*t/n mod 2pi for i=1..n, accumulated in extended precision.

    At |t| ~ n*pi with n ~ 1e5 a plain double product already carries an
    absolute phase error ~1e-11; the 80-bit path keeps it near 1e-14.
    """
    ratio = np.longdouble(t) / np.longdouble(n)
    phases = np.arange(1, n + 1, dtype=np.longdouble) * ratio
    return np.asarray(np.mod(phases, _LONG_TWO_PI), dtype=float)


def eval_point(sample: CoefficientSample, t: float) -> tuple[float, float]:
    """(P(t), P'(t)) by compensated direct summation."""
    n = sample.n
    th = _phases(n, t)
    c, s = np.cos(th), np.sin(th)
    y1, y2 = sample.y[:, 0], sample.y[:, 1]
    w = np.arange(1, n + 1) / n
    inv = 1.0 / math.sqrt(n)
    p = fsum((y1 * c).tolist()) + fsum((y2 * s).tolist())
    q = fsum((w * (y2 * c - y1 * s)).tolist())
    return p * inv, q * inv


def laurent_roots(sample: CoefficientSample, tol: float = 1e-6) -> np.ndarray:
    """Sorted real roots of P in (-n pi, n pi], with multiplicity.

    With w = exp(i t/n), w^n P is a degree-2n algebraic polynomial whose
    unit-circle roots are the real roots of P in one period (Boyd 2007);
    ``np.roots`` finds them from the companion matrix, and a root is kept
    when ||w| - 1| < tol.
    """
    n = sample.n
    y1, y2 = sample.y[:, 0], sample.y[:, 1]
    a = np.zeros(2 * n + 1, dtype=complex)  # a[k] multiplies w^k
    a[n + 1:] = (y1 - 1j * y2) / 2
    a[n - 1::-1] = (y1 + 1j * y2) / 2
    w = np.roots(a[::-1])
    w = w[np.abs(np.abs(w) - 1.0) < tol]
    return np.sort(n * np.angle(w))


def dense_scan(ys: np.ndarray, P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(crossing, audit) masks of (B, M) grids of P and P' over all cells of
    one period.

    The right-hand end values of every cell are built as whole grids rolled
    by one node, and the dip test is evaluated everywhere: a cell is audited
    when P keeps its sign, P' changes sign, and min |P| < (h/2) max |P'|
    over its two ends.  Exact zeros join the + side.
    """
    n, M = ys.shape[1], P.shape[1]
    h = 2.0 * n * math.pi / M
    Pr, Qr = np.roll(P, -1, axis=1), np.roll(Q, -1, axis=1)

    def signs(x):
        return np.where(x >= 0.0, 1.0, -1.0)

    crossing = signs(P) * signs(Pr) < 0
    dip = np.minimum(np.abs(P), np.abs(Pr)) < 0.5 * h * np.maximum(np.abs(Q), np.abs(Qr))
    stationary = signs(Q) * signs(Qr) < 0
    return crossing, (~crossing) & stationary & dip


def xi_norm_sq_quadrature(dist: DistributionSpec, w: float, abs_tol: float = 1e-10) -> float:
    """Density-route evaluation of ``xi_norm_sq`` for the continuous laws.

    Integrates ||w z||^2 against the closed-form density of xi1 - xi2
    piecewise between the half-integer kinks of ||.||.
    """
    w = float(w)
    if dist.is_discrete:
        return float(xi_norm_sq(dist, w))
    if dist.kind == "gaussian":
        half_width = 16.0  # N(0,2): mass beyond is ~1e-29

        def density(z):
            return math.exp(-z * z / 4.0) / (2.0 * math.sqrt(math.pi))
    elif dist.kind == "uniform":
        half_width = 2.0 * SQRT3

        def density(z):
            return max(0.0, (2.0 * SQRT3 - abs(z)) / 12.0)
    else:  # pragma: no cover
        raise DistributionError(f"no difference density for {dist.kind}")

    def integrand(z):
        d = abs(w * z)
        d = abs(d - round(d))
        return d * d * density(z)

    if w == 0.0:
        return 0.0
    # split at the kinks z = (j + 1/2)/|w| inside the support
    kinks = []
    j = 0
    while (j + 0.5) / abs(w) < half_width:
        kinks.append((j + 0.5) / abs(w))
        j += 1
        if j > 10**6:
            raise ValueError("w too large for quadrature path; use xi_norm_sq")
    edges = np.unique(np.concatenate([[0.0], kinks, [half_width]]))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, epsabs=abs_tol / (2 * len(edges)), limit=200)
        total += val
    return 2.0 * total  # even integrand


def rng_for_trial(seed: int, trial_index: int) -> np.random.Generator:
    """Trial ``trial_index``'s generator built on its own: a SeedSequence
    keyed by (seed, trial) seeds a fresh Philox.  ``ensemble.draw_trials``
    must draw exactly what this generator draws."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial_index),))
    return np.random.Generator(np.random.Philox(ss))


def rademacher_signs_reference(rng: np.random.Generator, shape) -> np.ndarray:
    """Rademacher signs as numpy's bounded-integer sampler draws them.
    ``ensemble._draw`` decodes the same signs from the raw words."""
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def walk_values_reference(n, t, dist, s, trials, seed, chunk=20000):
    """``charprobe._walk_values`` with ``rng.integers`` signs (see
    ``rademacher_signs_reference``) and chunks of 20,000 walks: the walk
    must give exactly these values."""
    C = coefficient_matrices(n, t, s)
    W = C.transpose(0, 2, 1).reshape(2 * n, C.shape[1])
    inv = 1.0 / math.sqrt(n)
    key = philox_keys(seed, np.zeros(1, dtype=np.uint64))[0]
    rng = np.random.Generator(np.random.Philox(key=key))
    out = np.empty((trials, W.shape[1]))
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        shape = (hi - lo, n, 2)
        y = (rademacher_signs_reference(rng, shape) if dist.kind == "rademacher"
             else _draw(dist, rng, shape))
        out[lo:hi] = (y.reshape(hi - lo, 2 * n) @ W) * inv
    return out


def decay_scan_loop(n: int, t: float, dist: DistributionSpec, radii,
                    directions_per_radius: int, seed: int = 0,
                    s: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(worst_log_abs, bound_log) of ``charprobe.decay_scan`` at the given
    radii, one direction at a time: two characteristic-function and two
    xi-norm calls on length-n projections per direction."""
    rows = _point_rows(n, t, s)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions_per_radius, 2 * len(rows)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.asarray(radii, dtype=float)
    worst = np.full(radii.size, -np.inf)
    bound = np.full(radii.size, -np.inf)
    for i, r in enumerate(radii):
        for e in dirs:
            pu, pup = _projections(rows, r * e)
            worst[i] = max(worst[i], float(np.sum(log_abs_charfn_scalar(dist, pu))
                                           + np.sum(log_abs_charfn_scalar(dist, pup))))
            bound[i] = max(bound[i], -0.5 * float(np.sum(xi_norm_sq(dist, pu / TWO_PI))
                                                  + np.sum(xi_norm_sq(dist, pup / TWO_PI))))
    return worst, bound


def H_alpha(alpha, x):
    """Product of probabilists' Hermite polynomials over alpha's coordinate
    multiplicities, at points x of shape (..., d)."""
    x = np.asarray(x, dtype=float)
    out = 1.0
    for j, m in enumerate(multiplicities(alpha, x.shape[-1])):
        if m:
            out = out * hermite(m, x[..., j])
    return out


#: absolute tolerance of the 1-D quadratures behind ``gauss_expect_psi_H``
_QUAD_TOL = 1e-10


def indicator_factor_quad(k: int, delta: float | None, lam: float) -> float:
    """``edgeworth._indicator_factor`` by quadrature:
    E[F_delta(sqrt(lam) W) h_k(W)]; the delta -> 0 limit is pointwise."""
    if k % 2 == 1:
        return 0.0
    if delta is None or delta == 0.0:
        return float(hermite(k, 0.0)) * _phi(0.0) / math.sqrt(lam)
    c = delta / math.sqrt(lam)
    val, _ = quad(lambda w: hermite(k, w) * _phi(w), -c, c,
                  epsabs=_QUAD_TOL, epsrel=0.0, limit=200)
    return val / (2.0 * delta)


def abs_factor_quad(k: int, lam: float) -> float:
    """``edgeworth._abs_factor`` by quadrature: E[|sqrt(lam) W| h_k(W)]."""
    if k % 2 == 1:
        return 0.0
    val, _ = quad(lambda w: w * hermite(k, w) * _phi(w), 0.0, 40.0,
                  epsabs=_QUAD_TOL, epsrel=0.0, limit=200)
    return 2.0 * val * math.sqrt(lam)


GAUSSIAN_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}


def scalar_moments(dist: DistributionSpec) -> dict[int, float]:
    """E xi^k for k = 0..4 of a mean-zero unit-variance law."""
    prof = moments(dist)
    return {0: 1.0, 1: 0.0, 2: 1.0, 3: prof.m3, 4: prof.m4}


def moment_stack(C: np.ndarray, mom: dict[int, float], alpha) -> np.ndarray:
    """E prod_j (C_k Y)_{alpha_j} for a stack of matrices C of shape (n, d, 2),
    through all 2^m terms of the expansion over the two entries of Y."""
    alpha = tuple(int(a) - 1 for a in alpha)
    m = len(alpha)
    if m > 4:
        raise ValueError("moment expansion supports order <= 4")
    total = np.zeros(C.shape[0])
    for mask in range(2 ** m):
        prod = np.ones(C.shape[0])
        c1 = 0
        for j in range(m):
            l = (mask >> j) & 1
            prod = prod * C[:, alpha[j], l]
            c1 += l
        total += prod * (mom[m - c1] * mom[c1])
    return total


def c_n_alpha_expansion(n: int, t: float, dist: DistributionSpec, alpha,
                        s: float | None = None) -> float:
    """c_n(alpha) as (1/n) sum_k of the law's full moment expansion minus
    the Gaussian's, on the lambda-scaled matrices: the route that
    ``edgeworth.c_n_alpha``'s pure-moment closed form replaces."""
    lam = np.asarray(LAMBDA_2 if s is None else LAMBDA_4)
    C = coefficient_matrices(n, t, s) / np.sqrt(lam)[None, :, None]
    dy = moment_stack(C, scalar_moments(dist), alpha)
    dg = moment_stack(C, GAUSSIAN_MOMENTS, alpha)
    return float(np.mean(dy - dg))


class EdgeworthQ2(NamedTuple):
    gamma1: np.ndarray
    gamma2_prime: np.ndarray
    gamma2_doubleprime: np.ndarray
    q2: np.ndarray


def edgeworth_q2(n: int, t: float, dist: DistributionSpec, x,
                 s: float | None = None) -> EdgeworthQ2:
    """The paper's second-order Edgeworth factor at points x of shape (..., d),

        Gamma_1   = (1/6)  sum_{|alpha|=3} c_n(alpha) H_alpha(x),
        Gamma_2'  = (1/24) sum_{|beta|=4}  c_n(beta)  H_beta(x),
        Gamma_2'' = (1/72) sum_{|rho|=3} sum_{|beta|=3} c_n(beta) c_n(rho) H_{beta,rho}(x),
        Q_2       = 1 + Gamma_1 / sqrt(n) + (Gamma_2' + Gamma_2'') / n,

    with every c_n from ``edgeworth.c_n_alpha``.  The sums run over ordered
    tuples in {1..d}^m, so (beta, rho) and (rho, beta) both count.
    """
    d = 2 if s is None else 4

    def c_table(order):
        return {a: c_n_alpha(n, t, dist, a, s=s)
                for a in product(range(1, d + 1), repeat=order)}

    c3, c4 = c_table(3), c_table(4)
    g1 = sum(c * H_alpha(a, x) for a, c in c3.items()) / 6.0
    g2p = sum(c * H_alpha(a, x) for a, c in c4.items()) / 24.0
    g2pp = sum(cb * cr * H_alpha(b + r, x)
               for b, cb in c3.items() for r, cr in c3.items()) / 72.0
    return EdgeworthQ2(g1, g2p, g2pp, 1.0 + g1 / math.sqrt(n) + (g2p + g2pp) / n)


def build_D_sweep(n: int, epsilon: float, tau: float = 0.05) -> DRegion:
    """``diophantine.build_D`` as a sweep of every band over all rows, a
    lexsort of the ranges and a segmented merge."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    threshold, l_max = _params(n, tau)
    npi = math.pi * n
    k_min = int(math.ceil(-npi / epsilon - 1e-12))
    k_max = int(math.floor(npi / epsilon + 1e-12)) - 1
    m = k_max - k_min + 1
    if m < 2:
        empty = np.zeros(max(m, 0) + 1, dtype=np.int64)
        return DRegion(n, epsilon, tau, k_min, k_max, empty,
                       np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)

    rows_k = np.arange(k_min, k_max + 1, dtype=np.int64)
    thr = threshold + _FP_SLACK
    all_rows, all_lo, all_hi = [], [], []

    pairs = _canonical_pairs(l_max) if l_max >= 1 else []
    for k1, l1 in pairs:
        # t-interval contribution l1 * I_k, as [c_lo, c_hi] per row
        e1 = l1 * rows_k * epsilon
        e2 = l1 * (rows_k + 1) * epsilon
        c_lo = np.minimum(e1, e2)
        c_hi = np.maximum(e1, e2)
        if k1 == 0:
            # resonance depends on the t-interval alone: full bad rows
            floor_hi = np.floor(c_hi / npi + thr).astype(np.int64)
            ceil_lo = np.ceil(c_lo / npi - thr).astype(np.int64)
            bad_rows = floor_hi >= ceil_lo  # an integer lies within thr
            idx = np.nonzero(bad_rows & (rows_k + 1 <= k_max))[0]
            if idx.size:
                all_rows.append(rows_k[idx])
                all_lo.append(rows_k[idx] + 1)
                all_hi.append(np.full(idx.size, k_max, dtype=np.int64))
            continue
        span = abs(k1) + abs(l1) + 1
        for mm in range(-span, span + 1):
            # solve for p: k1*[p eps, (p+1) eps] + [c_lo, c_hi] near npi*mm;
            # canonical pairs have k1 > 0 here
            lo_p = (npi * (mm - thr) - c_hi) / epsilon
            hi_p = (npi * (mm + thr) - c_lo) / epsilon
            p_lo = np.ceil(lo_p / k1 - 1.0).astype(np.int64)
            p_hi = np.floor(hi_p / k1).astype(np.int64)
            p_lo = np.maximum(p_lo, rows_k + 1)
            p_hi = np.minimum(p_hi, k_max)
            idx = np.nonzero(p_lo <= p_hi)[0]
            if idx.size:
                all_rows.append(rows_k[idx])
                all_lo.append(p_lo[idx])
                all_hi.append(p_hi[idx])

    if not all_rows:
        offsets = np.zeros(m + 1, dtype=np.int64)
        return DRegion(n, epsilon, tau, k_min, k_max, offsets,
                       np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)

    rows = np.concatenate(all_rows)
    los = np.concatenate(all_lo)
    his = np.concatenate(all_hi)
    order = np.lexsort((los, rows))
    rows, los, his = rows[order], los[order], his[order]

    # merge overlapping ranges within each row
    merged_rows, merged_lo, merged_hi = _merge_sorted_ranges(rows, los, his)
    bad = int(np.sum(merged_hi - merged_lo + 1))

    row_idx = (merged_rows - k_min).astype(np.int64)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.add.at(offsets, row_idx + 1, 1)
    offsets = np.cumsum(offsets)
    return DRegion(n, epsilon, tau, k_min, k_max, offsets,
                   merged_lo, merged_hi, bad)


def _merge_sorted_ranges(rows, los, his):
    """Merge [lo, hi] integer ranges already sorted by (row, lo)."""
    if rows.size == 0:
        return rows, los, his
    big = (his.max() - los.min() + 2)
    keyed = his + rows * big
    run = np.maximum.accumulate(keyed) - rows * big  # segmented running max
    new_row = np.r_[True, rows[1:] != rows[:-1]]
    prev = np.r_[-np.inf, run[:-1]]
    prev = np.where(new_row, -np.inf, prev)
    starts = new_row | (los > prev + 1)
    out_rows = rows[starts]
    out_lo = los[starts]
    # within a merged segment the union is contiguous, so hi = max over it
    out_hi = np.maximum.reduceat(his, np.nonzero(starts)[0])
    return out_rows, out_lo, out_hi
