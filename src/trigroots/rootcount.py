"""Root counting: sign-scan + bisection, and the delta-integral cross-check.

Counting proceeds on the oversampled FFT grid: every sign change brackets a
root (simple roots are a.s. the only kind).  Cells whose |P| dips near zero
without a sign change are audited through the stationary point of P: they
hide either nothing, a tangency, or a pair of roots missed by the scan.
One engine, ``_scan_and_audit``, does the scan and the audit on a batch of
grids; ``count_batch`` runs it on Monte Carlo batches and ``count_roots``
on a batch of one, then refines each bracket by bisection plus a short
guarded Newton polish.  The engine pays for the grid and the audited cells
only: the scan compares boolean sign grids, the dip test runs on the cells
where P' changes sign and P does not, and each cell that needs bisection
gets its Taylor coefficients once (``polyeval.cell_expansions``), so a
bisection step costs O(K), not O(n).  A row with a non-finite coefficient
is flagged.  The single-sample steps read P and P' through the
grid's local Taylor evaluator (``EvaluationGrid.eval_local``, O(1) in n per
point); one exact ``eval_points`` call at the polished roots gives the
reported residuals and derivatives, an independent check on every root.

The audit screens a cell with the cubic Hermite interpolant of its end
values and slopes.  Since P' changes sign across an audited cell, the
interpolant's quadratic derivative has one root in the cell: one candidate
extremum, whose value decides clear cases.  The rest take one 40-step
bisection on the sign of P', which brackets the stationary point to
2^-40 of the cell width.

``count_kacrice`` evaluates (1/2 delta) * int |P'| 1_{|P| < delta} dt by
locating the two |P| = delta crossings around each root (both sides in one
search) and integrating |P'| with 15-node Gauss-Legendre in between, all on
the local evaluator; the dips at the audit's unresolved tangencies add the
mass of their own crossings.  It reproduces the integer count unless the
sample is flagged: delta above the grid's safe estimate (min of |P| + |P'|
over the grid and |P| at the window ends), an uncertain count, or
overlapping delta-intervals of neighbouring roots.
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
    cell_expansions,
    eval_grid,
    eval_grid_batch,
    eval_points,
    taylor_eval,
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
_AUDIT_BISECT_STEPS = 40
_CROSSING_BISECT_STEPS = 45

_AUDIT_CLEAN, _AUDIT_DOUBLE, _AUDIT_TANGENT = 0, 1, 2


@dataclass(frozen=True)
class RootCountResult:
    count: int
    roots: np.ndarray
    residuals: np.ndarray
    derivatives: np.ndarray
    tangency_cells: tuple[int, ...]  # all audited dip cells
    tangencies: np.ndarray           # audit's t* of the cells stuck at a tangency
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
    root_result: RootCountResult  # the count and refined roots integrated

    @property
    def root_count(self) -> int:
        return self.root_result.count

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


def _hermite_extremum(p0, p1, q0, q1, h):
    """Interior stationary point of the cubic Hermite interpolant per cell.

    The end values of the interpolant's quadratic derivative are the end
    slopes h*q0 and h*q1, which differ in sign in an audited cell, so the
    derivative has exactly one root in (0, 1) when neither slope is 0.
    Returns (x, value) with x in (0, 1) cell coordinates; x is NaN when no
    root is strictly inside (sent to bisection).
    """
    m0, m1 = h * q0, h * q1
    a = 6.0 * (p0 - p1) + 3.0 * (m0 + m1)
    b = -6.0 * (p0 - p1) - 4.0 * m0 - 2.0 * m1
    lin = np.abs(a) <= 1e-14 * np.maximum(np.abs(b), 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(b * b - 4.0 * a * m0)
        qq = -0.5 * (b + np.where(b >= 0, sq, -sq))
        x = qq / a
        x = np.where(lin, -m0 / b, np.where((x > 0.0) & (x < 1.0), x, m0 / qq))
    x = np.where((x > 0.0) & (x < 1.0), x, np.nan)
    xs = np.where(np.isnan(x), 0.5, x)
    x2, x3 = xs * xs, xs * xs * xs
    val = (p0 * (2 * x3 - 3 * x2 + 1) + m0 * (x3 - 2 * x2 + xs)
           + p1 * (-2 * x3 + 3 * x2) + m1 * (x3 - x2))
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


def _resolve_audits(p0, p1, q0, q1, h, t_left, scale, ys, rows):
    """Classify audited cells: clean, a hidden root pair, or tangency.

    The cubic-Hermite extremum screens out clear cases; only cells whose
    interpolated extremum is within the screen margin of zero (or has no
    interior root) are resolved by bisection on the derivative sign
    change.  The bisection reads the Taylor series at the cell midpoint,
    built once per cell; its starting sign is that of the exact P' at the
    left node.  Row ``rows[k]`` of ``ys`` holds cell k's coefficients.
    Returns (status, t_star) per cell.
    """
    x, val = _hermite_extremum(p0, p1, q0, q1, h)
    needs = np.isnan(x) | (np.abs(val) <= _SCREEN_MARGIN * scale)
    status = np.where((~needs) & ((val >= 0.0) != (p0 >= 0.0)),
                      _AUDIT_DOUBLE, _AUDIT_CLEAN)
    t_star = t_left + np.where(np.isnan(x), 0.5, x) * h

    if needs.any():
        idx = np.nonzero(needs)[0]
        lo = t_left[idx].astype(float)
        mid = lo + 0.5 * h
        slope, d = cell_expansions(ys[rows[idx]], lo, h)
        up = slope >= 0.0
        lo, hi = _bisect(lambda t: (taylor_eval(d, t - mid)[1] >= 0.0) == up,
                         lo, lo + h, _AUDIT_BISECT_STEPS)
        ts = 0.5 * (lo + hi)
        ps = taylor_eval(d, ts - mid)[0]
        tangent = np.abs(ps) <= _TANGENCY_EPS * scale[idx]
        double = (~tangent) & ((ps >= 0.0) != (p0[idx] >= 0.0))
        status[idx] = np.select([tangent, double], [_AUDIT_TANGENT, _AUDIT_DOUBLE],
                                default=_AUDIT_CLEAN)
        t_star[idx] = ts
    return status, t_star


class _Scan(NamedTuple):
    crossing: np.ndarray   # (B, M): the cell's end values differ in sign
    rows: np.ndarray       # row of each audited cell
    cells: np.ndarray      # cell index of each audited cell, row by row
    status: np.ndarray     # audit verdict per audited cell
    t_star: np.ndarray     # stationary point per audited cell
    end: np.ndarray        # (B,) P at the window's closing point
    counts: np.ndarray     # (B,) sign changes plus two per hidden pair
    uncertain: np.ndarray  # (B,) tangency, zero or non-finite coefficients,
    #                        or over 2n roots


def _changes(nonneg: np.ndarray, closing: np.ndarray) -> np.ndarray:
    """Cells whose two end signs differ, from (B, M) signs and the (B,)
    sign at the closing point."""
    out = np.empty_like(nonneg)
    np.not_equal(nonneg[:, :-1], nonneg[:, 1:], out=out[:, :-1])
    np.not_equal(nonneg[:, -1], closing, out=out[:, -1])
    return out


def _scan_and_audit(ys: np.ndarray, P: np.ndarray, Q: np.ndarray,
                    window: WindowSpec) -> _Scan:
    """Sign scan and stationary-point audit of (B, M) grids of P and P'.

    The last cell closes on the first node for the full window (P is
    periodic) and on the value at n*pi for the half window, summed with the
    exact (-1)^i phases.  ``ys`` holds the (B, n, 2) coefficients.  The
    scan compares signs (x >= 0, so an exact zero joins the + side); only
    cells where P' changes sign and P does not are gathered for the dip
    test, and only the rows of the audited cells get a scale max|P|.
    """
    n, M = ys.shape[1], P.shape[1]
    h = window.length(n) / M
    if window.circular:
        p_end, q_end = P[:, 0], Q[:, 0]
    else:
        # at t = n*pi the phases are i*pi: cos = (-1)^i and sin = 0 exactly
        i = np.arange(1, n + 1)
        alt = np.where(i % 2 == 0, 1.0, -1.0)
        p_end = ys[:, :, 0] @ alt / math.sqrt(n)
        q_end = ys[:, :, 1] @ (alt * i / n) / math.sqrt(n)
    crossing = _changes(P >= 0.0, p_end >= 0.0)
    counts = np.count_nonzero(crossing, axis=1)
    finite = np.isfinite(ys).all(axis=(1, 2))
    uncertain = ~finite | ~ys.any(axis=(1, 2))

    stationary = _changes(Q >= 0.0, q_end >= 0.0)
    stationary &= ~crossing
    rows, cells = np.divmod(np.flatnonzero(stationary), M)
    right = cells + 1
    last = right == M
    right[last] = 0
    pl, pr = P[rows, cells], P[rows, right]
    ql, qr = Q[rows, cells], Q[rows, right]
    if not window.circular:
        pr[last], qr[last] = p_end[rows[last]], q_end[rows[last]]
    dip = np.minimum(np.abs(pl), np.abs(pr)) < 0.5 * h * np.maximum(np.abs(ql), np.abs(qr))
    audit = dip & finite[rows]
    rows, cells = rows[audit], cells[audit]

    status, t_star = np.empty(0, dtype=int), np.empty(0)
    if rows.size:
        scaled, at = np.unique(rows, return_inverse=True)
        Ps = P[scaled]
        scale = np.maximum(Ps.max(axis=1), -Ps.min(axis=1))
        status, t_star = _resolve_audits(
            pl[audit], pr[audit], ql[audit], qr[audit], h,
            window.start(n) + h * cells, np.maximum(scale, 1e-300)[at], ys, rows)
        np.add.at(counts, rows[status == _AUDIT_DOUBLE], 2)
        uncertain[rows[status == _AUDIT_TANGENT]] = True
    uncertain |= counts > 2 * n
    return _Scan(crossing, rows, cells, status, t_star, p_end, counts, uncertain)


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
    up = grid.P[crossing] >= 0.0
    double = scan.status == _AUDIT_DOUBLE
    if double.any():
        tl = t_left[scan.cells[double]]
        ts = scan.t_star[double]
        ul = grid.P[scan.cells[double]] >= 0.0
        lo = np.concatenate([lo, tl, ts])
        hi = np.concatenate([hi, ts, tl + h])
        up = np.concatenate([up, ul, ~ul])

    roots = resid = deriv = np.empty(0)
    if lo.size:
        roots, resid, deriv = _refine_brackets(sample, grid, lo, hi, up, tol)
        order = np.argsort(roots)
        roots, resid, deriv = roots[order], resid[order], deriv[order]
    return RootCountResult(int(scan.counts[0]), roots, resid, deriv,
                           tuple(scan.cells.tolist()),
                           scan.t_star[scan.status == _AUDIT_TANGENT],
                           bool(scan.uncertain[0]), grid, float(scan.end[0]), tol)


def _refine_brackets(sample, grid, lo, hi, up, tol):
    """Vectorized bisection to width tol, then a guarded Newton polish, on
    the grid's local evaluator; ``up`` says where P(lo) >= 0.  Residuals
    and derivatives are exact."""
    width = float(np.max(hi - lo))
    steps = max(1, int(math.ceil(math.log2(width / tol))))
    lo, hi = _bisect(lambda mid: (grid.eval_local(mid)[0] >= 0.0) == up,
                     lo, hi, steps)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_POLISH_STEPS):
        p, q = grid.eval_local(x)
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
    # a row with an infinite coefficient gets NaN grids, then a flag
    with np.errstate(invalid="ignore"):
        P, Q = eval_grid_batch(ys, n, window, M)
    scan = _scan_and_audit(ys, P, Q, window)
    return scan.counts, scan.uncertain


def check_delta(delta: float) -> None:
    """Refuse a delta that is not finite and > 0."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")


def count_kacrice(sample: CoefficientSample, window: WindowSpec = FULL,
                  delta: float = 1e-6) -> KacRiceResult:
    """Approximate-integral root count (1/2 delta) int |P'| 1_{|P|<delta}.

    Around each refined root the two |P| = delta crossings are located by
    bisection and |P'| is integrated with 15-node Gauss-Legendre between
    them; the |P| < delta dips at the audit's unresolved tangencies add
    their own mass.  The sample is flagged when delta exceeds the grid's
    safe estimate (min of |P| + |P'| on the grid and |P| at the window
    ends), when the count is uncertain, or when the delta-intervals of two
    roots overlap: then the |P| < delta set joins them and the integral
    cannot equal the count.
    """
    check_delta(delta)
    rr = count_roots(sample, window)
    grid = rr.grid
    safe = min(float(np.min(np.abs(grid.P) + np.abs(grid.Pprime))),
               abs(float(grid.P[0])), abs(rr.end_value))
    flagged = bool(delta > safe or rr.uncertain)

    total = 0.0
    if rr.count:
        t_lo, t_hi = _find_level_crossing(grid, rr.roots, rr.derivatives, delta)
        flagged |= bool(np.any(t_lo[1:] <= t_hi[:-1]))
        if window.circular:
            flagged |= bool(t_lo[0] + window.length(sample.n) <= t_hi[-1])
        else:
            t_lo = np.maximum(t_lo, 0.0)
            t_hi = np.minimum(t_hi, window.end(sample.n))
        mid = 0.5 * (t_hi + t_lo)
        half = 0.5 * (t_hi - t_lo)
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        _, qv = grid.eval_local(nodes.ravel())
        qv = np.abs(qv).reshape(nodes.shape)
        total += float(np.sum((qv @ _GL_WEIGHTS) * half))

    # unresolved tangencies can still carry |P| < delta mass that is not
    # attached to any counted root (resolved cells contribute nothing:
    # clean cells stay above the tangency scale, double cells' roots are
    # already in the root list)
    if rr.tangencies.size:
        total += _tangency_mass(grid, rr.tangencies, delta)

    return KacRiceResult(value=total / (2.0 * delta), flagged=flagged,
                         safe_delta_estimate=safe, delta=delta, root_result=rr)


def _tangency_mass(grid, t_star, delta):
    """int |P'| over the |P| < delta dips at the stationary points t_star.

    |P| is unimodal on each side of a dip: the |P'| integral telescopes to
    (delta - |P(t*)|) per side once the delta crossings are bracketed.
    """
    p_star = np.abs(grid.eval_local(t_star)[0])
    t_star, p_star = t_star[p_star < delta], p_star[p_star < delta]
    ends = _find_level_crossing(grid, t_star, np.ones_like(t_star), delta)
    return float(np.sum(np.abs(grid.eval_local(ends)[0]) - p_star))


def _find_level_crossing(grid, roots, deriv, delta):
    """Nearest t on either side of each root with |P(t)| = delta: rows 0
    and 1 of the result are the left and right crossings."""
    side = np.array([[-1.0], [1.0]])
    w = np.minimum(0.5 * grid.spacing, 2.0 * delta / np.maximum(np.abs(deriv), 1e-300))
    t_out = roots + side * w
    p_out, _ = grid.eval_local(t_out)
    for _ in range(64):
        inside = np.abs(p_out) < delta
        if not inside.any():
            break
        w = np.where(inside, 2.0 * w, w)
        t_out = roots + side * w
        p_out, _ = grid.eval_local(t_out)
    # lo = roots has |P| < delta, hi = t_out has |P| >= delta
    lo, hi = _bisect(lambda mid: np.abs(grid.eval_local(mid)[0]) < delta,
                     roots, t_out, _CROSSING_BISECT_STEPS)
    return 0.5 * (lo + hi)


def roots_csv_rows(result: RootCountResult, trial_index: int):
    """(trial_index, root, residual) rows for the optional per-sample dump."""
    return [(trial_index, float(r), float(e))
            for r, e in zip(result.roots, result.residuals)]
