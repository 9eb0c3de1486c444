"""Root counting: sign-scan + bisection, and the delta-integral cross-check.

Counting proceeds on the oversampled FFT grid: every sign change brackets a
root (simple roots are a.s. the only kind).  Cells whose |P| dips near zero
without a sign change are audited through the stationary point of P: they
hide either nothing, a tangency, or a pair of roots missed by the scan.
One engine, ``_scan_and_audit``, does the scan and the audit on a batch of
grids; ``count_batch`` runs it on Monte Carlo batches and ``count_roots``
on a batch of one, then refines each bracket by bisection plus a short
guarded Newton polish.

``count_kacrice`` evaluates (1/2 delta) * int |P'| 1_{|P| < delta} dt by
locating the two |P| = delta crossings around each root and integrating
|P'| with 15-node Gauss-Legendre in between.  It reproduces the integer
count unless the sample is flagged: delta above the grid's safe estimate
(min of |P| + |P'| over the grid and |P| at the window ends), an uncertain
count, or overlapping delta-intervals of neighbouring roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from trigroots.ensemble import CoefficientSample
from trigroots.polyeval import (
    FULL,
    EvaluationGrid,
    WindowSpec,
    eval_grid,
    eval_grid_batch,
    eval_points,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

#: |P| at an audited stationary point below this (times the sample scale)
#: cannot be told apart from a double root in double precision
_TANGENCY_EPS = 1e-9

#: cubic-Hermite extremum estimates within this fraction of the sample
#: scale are re-resolved by bisection (interpolation error is ~1e-4 of
#: scale at the default oversampling, far below the margin)
_SCREEN_MARGIN = 1e-3

_NEWTON_POLISH_STEPS = 3
_AUDIT_BISECT_STAGE1 = 14
_AUDIT_BISECT_STAGE2 = 26
_CROSSING_BISECT_STEPS = 45

_AUDIT_CLEAN, _AUDIT_DOUBLE, _AUDIT_TANGENT = 0, 1, 2


@dataclass(frozen=True)
class RootCountResult:
    count: int
    roots: np.ndarray
    residuals: np.ndarray
    derivatives: np.ndarray
    tangency_cells: tuple[int, ...]   # all audited dip cells
    unresolved_cells: tuple[int, ...]  # audited cells stuck at a tangency
    uncertain: bool
    grid: EvaluationGrid
    end_value: float  # P at the window's closing point
    tol: float


@dataclass(frozen=True)
class KacRiceResult:
    value: float
    flagged: bool
    safe_delta_estimate: float
    delta: float
    root_count: int

    def __float__(self):
        return self.value


def default_tol(n: int) -> float:
    return 1e-12 * n


def gaussian_expectation_exact(n: int, window: WindowSpec = FULL) -> float:
    """Mean root count of the Gaussian ensemble, exact at every n.

    The half-window value is half the full-window one (stationarity of the
    Gaussian ensemble; verified by Monte Carlo, not assumed from theory).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    full = 2.0 * math.sqrt((2 * n + 1) * (n + 1) / 6.0)
    return full if window.kind == "full" else 0.5 * full


def _signs(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def _audit_candidates(Pl, Pr, Ql, Qr, h):
    """Cells with no sign change, a stationary point, and a suspicious dip."""
    crossing = _signs(Pl) * _signs(Pr) < 0
    dip = np.minimum(np.abs(Pl), np.abs(Pr)) < 0.5 * h * np.maximum(np.abs(Ql), np.abs(Qr))
    stationary = _signs(Ql) * _signs(Qr) < 0
    return crossing, (~crossing) & stationary & dip


def _hermite_extremum(p0, p1, q0, q1, h):
    """Interior stationary point of the cubic Hermite interpolant per cell.

    Returns (x, value) with x in (0, 1) cell coordinates; x is NaN when the
    quadratic derivative has no clean interior root (sent to bisection).
    """
    m0, m1 = h * q0, h * q1
    a = 6.0 * (p0 - p1) + 3.0 * (m0 + m1)
    b = -6.0 * (p0 - p1) - 4.0 * m0 - 2.0 * m1
    c = m0

    def cubic(x):
        x2, x3 = x * x, x * x * x
        return (p0 * (2 * x3 - 3 * x2 + 1) + m0 * (x3 - 2 * x2 + x)
                + p1 * (-2 * x3 + 3 * x2) + m1 * (x3 - x2))

    lin = np.abs(a) <= 1e-14 * np.maximum(np.abs(b), 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        xl = np.where(lin, -c / np.where(b == 0.0, np.nan, b), np.nan)
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        qq = -0.5 * (b + np.where(b >= 0, sq, -sq))
        x1 = np.where(~lin & (disc >= 0.0), qq / np.where(a == 0.0, np.nan, a), np.nan)
        x2 = np.where(~lin & (disc >= 0.0) & (qq != 0.0), c / np.where(qq == 0.0, np.nan, qq), np.nan)
    x = np.full_like(p0, np.nan)
    best = np.full_like(p0, np.inf)
    for cand in (xl, x1, x2):
        ok = np.isfinite(cand) & (cand > 0.0) & (cand < 1.0)
        v = np.where(ok, np.abs(cubic(np.where(ok, cand, 0.5))), np.inf)
        better = ok & (v < best)
        x = np.where(better, cand, x)
        best = np.where(better, v, best)
    val = cubic(np.where(np.isnan(x), 0.5, x))
    return x, val


def _bisect(keep_lo, lo, hi, steps):
    """Halve the brackets [lo, hi] ``steps`` times.  Where ``keep_lo(mid)``
    holds, mid is on lo's side of the sought point and replaces lo;
    elsewhere it replaces hi."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        left = keep_lo(mid)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return lo, hi


def _row_evaluator(y: np.ndarray):
    """(P, P') of coefficient row k at the point ts[k]; y has shape (K, n, 2).

    The rows and their frequency-weighted copies are built once, so each
    bisection step costs one cos/sin table and four row sums.
    """
    n = y.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    w = i / n
    inv = 1.0 / math.sqrt(n)
    y1, y2 = y[:, :, 0], y[:, :, 1]
    wy1, wy2 = w * y1, w * y2

    def pq(ts):
        th = np.multiply.outer(ts / n, i)
        c, s = np.cos(th), np.sin(th)
        p = (np.sum(c * y1, axis=1) + np.sum(s * y2, axis=1)) * inv
        q = (np.sum(c * wy2, axis=1) - np.sum(s * wy1, axis=1)) * inv
        return p, q
    return pq


def _resolve_audits(p0, p1, q0, q1, h, t_left, scale, y):
    """Classify audited cells: clean, a hidden root pair, or tangency.

    The cubic-Hermite extremum screens out clear cases; only cells whose
    interpolated extremum is within the screen margin of zero (or has no
    clean quadratic root) are resolved by bisection on the derivative sign
    change, with extra refinement for near-zero stationary values.  ``y``
    holds each cell's coefficient row.  Returns (status, t_star) per cell.
    """
    x, val = _hermite_extremum(p0, p1, q0, q1, h)
    needs = np.isnan(x) | (np.abs(val) <= _SCREEN_MARGIN * scale)
    status = np.where((~needs) & (_signs(val) != _signs(p0)),
                      _AUDIT_DOUBLE, _AUDIT_CLEAN)
    t_star = t_left + np.where(np.isnan(x), 0.5, x) * h

    if needs.any():
        idx = np.nonzero(needs)[0]
        pq = _row_evaluator(y[idx])
        lo = t_left[idx].astype(float)
        hi = lo + h
        s_lo = _signs(pq(lo)[1])
        lo, hi = _bisect(lambda mid: _signs(pq(mid)[1]) == s_lo,
                         lo, hi, _AUDIT_BISECT_STAGE1)
        ts = 0.5 * (lo + hi)
        ps, _ = pq(ts)
        tiny = np.abs(ps) <= 1e-6 * scale[idx]
        if tiny.any():
            sub = np.nonzero(tiny)[0]
            pq2 = _row_evaluator(y[idx[sub]])
            s2 = s_lo[sub]
            lo2, hi2 = _bisect(lambda mid: _signs(pq2(mid)[1]) == s2,
                               lo[sub], hi[sub], _AUDIT_BISECT_STAGE2)
            ts2 = 0.5 * (lo2 + hi2)
            ps2, _ = pq2(ts2)
            ts[sub] = ts2
            ps[sub] = ps2
        tangent = np.abs(ps) <= _TANGENCY_EPS * scale[idx]
        double = (~tangent) & (_signs(ps) != _signs(p0[idx]))
        status[idx] = np.select([tangent, double], [_AUDIT_TANGENT, _AUDIT_DOUBLE],
                                default=_AUDIT_CLEAN)
        t_star[idx] = ts
    return status, t_star


class _Scan(NamedTuple):
    crossing: np.ndarray   # (B, M): the cell's end values differ in sign
    cells: np.ndarray      # cell index of each audited cell, row by row
    status: np.ndarray     # audit verdict per audited cell
    t_star: np.ndarray     # stationary point per audited cell
    end: np.ndarray        # (B,) P at the window's closing point
    counts: np.ndarray     # (B,) sign changes plus two per hidden pair
    uncertain: np.ndarray  # (B,) tangency, zero polynomial or over 2n roots


def _scan_and_audit(ys: np.ndarray, P: np.ndarray, Q: np.ndarray,
                    window: WindowSpec) -> _Scan:
    """Sign scan and stationary-point audit of (B, M) grids of P and P'.

    The last cell closes on the first node for the full window (P is
    periodic) and on the value at n*pi for the half window, summed with the
    exact (-1)^i phases.  ``ys`` holds the (B, n, 2) coefficients.
    """
    n, M = ys.shape[1], P.shape[1]
    h = window.length(n) / M
    if window.circular:
        Pr, Qr = np.roll(P, -1, axis=1), np.roll(Q, -1, axis=1)
    else:
        i = np.arange(1, n + 1)
        end_c = np.cos(i * math.pi)  # exact (-1)^i pattern at t = n*pi
        end_s = np.sin(i * math.pi)
        w = i / n
        p_end = (ys[:, :, 0] @ end_c + ys[:, :, 1] @ end_s) / math.sqrt(n)
        q_end = (ys[:, :, 0] @ (-w * end_s) + ys[:, :, 1] @ (w * end_c)) / math.sqrt(n)
        Pr = np.concatenate([P[:, 1:], p_end[:, None]], axis=1)
        Qr = np.concatenate([Q[:, 1:], q_end[:, None]], axis=1)
    crossing, audit = _audit_candidates(P, Pr, Q, Qr, h)
    counts = crossing.sum(axis=1).astype(int)
    scale = np.max(np.abs(P), axis=1)
    uncertain = scale == 0.0

    rows, cells = np.nonzero(audit)
    status, t_star = np.empty(0, dtype=int), np.empty(0)
    if rows.size:
        t_left = window.start(n) + h * np.arange(M)
        status, t_star = _resolve_audits(
            P[rows, cells], Pr[rows, cells], Q[rows, cells], Qr[rows, cells],
            h, t_left[cells], np.maximum(scale, 1e-300)[rows], ys[rows])
        np.add.at(counts, rows[status == _AUDIT_DOUBLE], 2)
        uncertain[rows[status == _AUDIT_TANGENT]] = True
    uncertain |= counts > 2 * n
    return _Scan(crossing, cells, status, t_star, Pr[:, -1], counts, uncertain)


def count_roots(sample: CoefficientSample, window: WindowSpec = FULL,
                tol: float | None = None) -> RootCountResult:
    """Count and refine the real roots in the window: the batch engine on
    one sample, then bisection plus Newton polish of every bracket."""
    n = sample.n
    if tol is None:
        tol = default_tol(n)
    grid = eval_grid(sample, window)
    h = grid.spacing
    if not 0.0 < tol < h:
        raise ValueError(f"tol={tol} outside (0, grid spacing {h})")
    scan = _scan_and_audit(sample.y[None], grid.P[None], grid.Pprime[None], window)
    t_left = grid.t_values()
    crossing = scan.crossing[0]
    lo = t_left[crossing]
    hi = lo + h
    s_lo = _signs(grid.P[crossing])
    double = scan.status == _AUDIT_DOUBLE
    if double.any():
        tl = t_left[scan.cells[double]]
        ts = scan.t_star[double]
        sl = _signs(grid.P[scan.cells[double]])
        lo = np.concatenate([lo, tl, ts])
        hi = np.concatenate([hi, ts, tl + h])
        s_lo = np.concatenate([s_lo, sl, -sl])

    roots = resid = deriv = np.empty(0)
    if lo.size:
        roots, resid, deriv = _refine_brackets(sample, lo, hi, s_lo, tol)
        order = np.argsort(roots)
        roots, resid, deriv = roots[order], resid[order], deriv[order]
    unresolved = scan.cells[scan.status == _AUDIT_TANGENT]
    return RootCountResult(int(scan.counts[0]), roots, resid, deriv,
                           tuple(scan.cells.tolist()), tuple(unresolved.tolist()),
                           bool(scan.uncertain[0]), grid, float(scan.end[0]), tol)


def _refine_brackets(sample, lo, hi, s_lo, tol):
    """Vectorized bisection to width tol, then a guarded Newton polish."""
    width = float(np.max(hi - lo))
    steps = max(1, int(math.ceil(math.log2(width / tol))))
    lo, hi = _bisect(lambda mid: _signs(eval_points(sample, mid)[0]) == s_lo,
                     lo, hi, steps)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_POLISH_STEPS):
        p, q = eval_points(sample, x)
        step = np.where(q != 0.0, p / np.where(q == 0.0, 1.0, q), 0.0)
        x_new = x - step
        inside = (x_new >= lo) & (x_new <= hi)
        x = np.where(inside, x_new, x)
    p, q = eval_points(sample, x)
    return x, np.abs(p), q


def count_batch(ys: np.ndarray, n: int, window: WindowSpec, M: int):
    """Root counts for a batch of coefficient arrays (B, n, 2).

    Fast path for Monte Carlo loops: the engine of ``count_roots`` without
    the root refinement.  Returns (counts, uncertain) arrays.
    """
    P, Q = eval_grid_batch(ys, n, window, M)
    scan = _scan_and_audit(ys, P, Q, window)
    return scan.counts, scan.uncertain


def count_kacrice(sample: CoefficientSample, window: WindowSpec = FULL,
                  delta: float = 1e-6) -> KacRiceResult:
    """Approximate-integral root count (1/2 delta) int |P'| 1_{|P|<delta}.

    Around each refined root the two |P| = delta crossings are located by
    bisection and |P'| is integrated with 15-node Gauss-Legendre between
    them; audited near-tangent cells are integrated on a local fine grid.
    The sample is flagged when delta exceeds the grid's safe estimate (min
    of |P| + |P'| on the grid and |P| at the window ends), when the count
    is uncertain, or when the delta-intervals of two roots overlap: then
    the |P| < delta set joins them and the integral cannot equal the count.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    rr = count_roots(sample, window)
    grid = rr.grid
    safe = min(float(np.min(np.abs(grid.P) + np.abs(grid.Pprime))),
               abs(float(grid.P[0])), abs(rr.end_value))
    flagged = bool(delta > safe or rr.uncertain)

    total = 0.0
    if rr.count:
        roots, deriv = rr.roots, rr.derivatives
        t_lo = _find_level_crossing(sample, roots, deriv, delta, grid.spacing, side=-1.0)
        t_hi = _find_level_crossing(sample, roots, deriv, delta, grid.spacing, side=+1.0)
        flagged |= bool(np.any(t_lo[1:] <= t_hi[:-1]))
        if window.circular:
            flagged |= bool(t_lo[0] + window.length(sample.n) <= t_hi[-1])
        else:
            t_lo = np.maximum(t_lo, 0.0)
            t_hi = np.minimum(t_hi, window.end(sample.n))
        mid = 0.5 * (t_hi + t_lo)
        half = 0.5 * (t_hi - t_lo)
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        _, qv = eval_points(sample, nodes.ravel())
        qv = np.abs(qv).reshape(nodes.shape)
        total += float(np.sum((qv @ _GL_WEIGHTS) * half))

    # unresolved tangency cells can still carry |P| < delta mass that is
    # not attached to any counted root (resolved cells contribute nothing:
    # clean cells stay above the tangency scale, double cells' roots are
    # already in the root list)
    for cell in rr.unresolved_cells:
        total += _tangency_mass(sample, grid, cell, delta)

    return KacRiceResult(value=total / (2.0 * delta), flagged=flagged,
                         safe_delta_estimate=safe, delta=delta,
                         root_count=rr.count)


def _tangency_mass(sample, grid, cell, delta):
    """int |P'| over the |P| < delta dip of an unresolved tangency cell."""
    t0 = grid.t_values()[cell]
    h = grid.spacing
    lo, hi = np.array([t0]), np.array([t0 + h])
    s_lo = _signs(eval_points(sample, lo)[1])
    lo, hi = _bisect(lambda mid: _signs(eval_points(sample, mid)[1]) == s_lo,
                     lo, hi, 60)
    t_star = float((0.5 * (lo + hi))[0])
    p_star, _ = eval_points(sample, np.array([t_star]))
    if abs(p_star[0]) >= delta:
        return 0.0
    # |P| is unimodal on each side of the dip: the |P'| integral telescopes
    # to (delta - |P(t*)|) per side once the delta crossings are bracketed
    unit = np.array([1.0])
    left = _find_level_crossing(sample, np.array([t_star]), unit, delta, h,
                                side=-1.0)
    right = _find_level_crossing(sample, np.array([t_star]), unit, delta, h,
                                 side=+1.0)
    p_l, _ = eval_points(sample, left)
    p_r, _ = eval_points(sample, right)
    return float((abs(p_l[0]) - abs(p_star[0])) + (abs(p_r[0]) - abs(p_star[0])))


def _find_level_crossing(sample, roots, deriv, delta, h, side):
    """Nearest t on the given side of each root with |P(t)| = delta."""
    w = np.minimum(0.5 * h, 2.0 * delta / np.maximum(np.abs(deriv), 1e-300))
    t_out = roots + side * w
    p_out, _ = eval_points(sample, t_out)
    for _ in range(64):
        inside = np.abs(p_out) < delta
        if not inside.any():
            break
        w = np.where(inside, 2.0 * w, w)
        t_out = roots + side * w
        p_out, _ = eval_points(sample, t_out)
    # lo = roots has |P| < delta, hi = t_out has |P| >= delta
    lo, hi = _bisect(lambda mid: np.abs(eval_points(sample, mid)[0]) < delta,
                     roots, t_out, _CROSSING_BISECT_STEPS)
    return 0.5 * (lo + hi)


def roots_csv_rows(result: RootCountResult, trial_index: int):
    """(trial_index, root, residual) rows for the optional per-sample dump."""
    return [(trial_index, float(r), float(e))
            for r, e in zip(result.roots, result.residuals)]
