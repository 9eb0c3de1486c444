"""Root counting: sign scan, audit and Newton, and the delta-integral check.

Counting proceeds on the oversampled FFT grid: every sign change brackets a
root (simple roots are a.s. the only kind).  Cells whose |P| dips near zero
without a sign change are audited through the stationary point of P: they
hide either nothing, a tangency, or a pair of roots missed by the scan.
On a batch of complex grids P + i P' over one period, ``_scan`` XORs
neighbouring words of P and P' signs, runs the dip test on the cells where
P' changes sign and P does not (one complex gather a cell end), and flags
a row with a non-finite coefficient; ``_audit`` resolves the candidate
cells (``_Cells``) of any number of scans at once.  ``count_batch`` scans
cache-sized row blocks (``polyeval.pass_rows``) in one grid buffer and
audits once a call; ``count_roots`` scans and audits a batch of one.
The audit screens a cell with the extremum of the cubic Hermite
interpolant of its end values and slopes, provably within h^4/384 sup|P|
of P; only the cells it leaves unclear get their Taylor series
(``polyeval.cell_expansions``) and an exact search.

Every search is one safeguarded Newton iteration, ``_newton``, on a bracket
it keeps.  A step that would leave it past the far end goes to that end
once (a root a few ulps inside it, as at a lattice law's zero on a grid
node, is then met from there), and otherwise to the midpoint.  It serves
the audit's stationary point (Newton on P', with P'' from the cell's
series), the root polish of ``count_roots`` and the |P| = delta crossings.  The
single-sample searches read P and P' from the grid's local Taylor
evaluator (``EvaluationGrid.eval_local``, O(1) in n per point); one exact
``eval_points`` call at the roots gives the reported residuals and
derivatives, an independent check on every root.

``count_kacrice`` evaluates (1/2 delta) * int |P'| 1_{|P| < delta} dt from
the two crossings around each root (to one ulp) and 15-node Gauss-Legendre
in between; the dips at the audit's unresolved tangencies add the mass of
their own crossings.  It reproduces the integer count unless the sample is
flagged: delta above the grid's safe estimate (min of |P| + |P'| over the
grid and |P| at the window's start), an uncertain count, or overlapping
delta-intervals of neighbouring roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from trigroots.ensemble import CoefficientSample
from trigroots.polyeval import (
    FULL,
    EvaluationGrid,
    cell_expansions,
    eval_grid,
    eval_grid_batch,
    eval_points,
    grid_spacing,
    pass_rows,
    taylor_eval,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

#: |P| at an audited stationary point below this (times the sample scale)
#: cannot be told apart from a double root in double precision
_TANGENCY_EPS = 1e-9

#: rounding slack of the audit's screen: a cell keeps the cubic-Hermite
#: verdict when its extremum clears twice the proven interpolation error
#: (and the tangency threshold), leaving that error plus rounding to spare
_HERMITE_SLACK = 2.0

#: step cap of ``_newton``; Newton needs a handful, and 64 halvings alone
#: would shrink a grid cell by 2^-64
_NEWTON_STEPS = 64

_AUDIT_CLEAN, _AUDIT_DOUBLE, _AUDIT_TANGENT = 0, 1, 2
AGREEMENT_SHARE = 0.99  # a run agrees when this share of its samples ``agrees``


@dataclass(frozen=True)
class RootCountResult:
    count: int
    roots: np.ndarray
    residuals: np.ndarray
    derivatives: np.ndarray
    tangencies: np.ndarray           # audit's t* of the cells stuck at a tangency
    uncertain: bool
    grid: EvaluationGrid | None  # None in a KacRiceResult (frees the stack)
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

    @property
    def agrees(self) -> bool:  # the delta-integral is within 1e-3 of the count
        return abs(self.value - self.root_count) < 1e-3


def default_tol(n: int) -> float:
    return 1e-12 * n


def gaussian_expectation_exact(n: int) -> float:
    """Mean root count of the Gaussian ensemble over one period, exact at
    every n; refuses an n that is not an integer >= 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return 2.0 * math.sqrt((2 * n + 1) * (n + 1) / 6.0)


def _hermite_extremum(p0, p1, q0, q1, h):
    """Interior stationary point of the cubic Hermite interpolant per cell.

    The end values of the interpolant's quadratic derivative are the end
    slopes h*q0 and h*q1, which differ in sign in an audited cell, so the
    derivative has exactly one root in (0, 1) when neither slope is 0.
    Returns (x, value) with x in (0, 1) cell coordinates; x is NaN when no
    root is strictly inside (the cell then goes to the exact search).
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


def _newton(fg, a, b, x, up, tol=0.0):
    """Safeguarded Newton from x for a sign change of g between the bracket
    ends a and b (either order); ``up`` says where g(a) >= 0, and ``fg(t)``
    returns (g, g').  Each step moves the end on x's side to x, so x is one
    end and ``far`` the other.  Then x takes the Newton step if it lands
    strictly inside; far itself, once a bracket, if it lands on or past far
    (a root a few ulps inside an end is then reached from that end, not by
    halving towards it); the midpoint if not.  A bracket is done once its
    width is within tol or one ulp of x, or its step is and points into the
    bracket: a short step out past x follows the slope of a root beyond x,
    and an exact zero (a step of 0) is done wherever it lies.  Returns x
    clipped to the brackets."""
    end, side, far = a, up, b  # x's end, the sign of g there, the other end
    done = np.zeros(np.shape(x), dtype=bool)
    fresh = ~done  # far not probed yet
    for _ in range(_NEWTON_STEPS):
        g, dg = fg(x)
        pos = g >= 0.0
        far = np.where(pos == side, far, end)
        end, side = x, pos
        eps = np.maximum(tol, np.spacing(np.abs(x)))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = g / dg
            x_new = x - q
            step, beyond, span = x_new - x, x_new - far, far - x
            converged = (np.abs(step) <= eps) & (q * span <= 0.0)
            newton = converged | (step * beyond < 0.0)
            probe = fresh & (beyond * span >= 0.0)  # on or past far, so not inside
        x = np.where(done, x, np.where(newton, x_new, np.where(probe, far, 0.5 * (x + far))))
        fresh ^= probe
        done |= converged | (np.abs(span) <= eps)
        if done.all():
            break
    return np.clip(x, np.minimum(end, far), np.maximum(end, far))


class _Cells(NamedTuple):
    """The candidate cells of a ``_scan``, row by row."""
    rows: np.ndarray   # row of each cell in the scanned batch
    cells: np.ndarray  # cell index in the period
    p0: np.ndarray     # P at the cell's left and right ends
    p1: np.ndarray
    q0: np.ndarray     # P' at the cell's left and right ends
    q1: np.ndarray
    scale: np.ndarray  # the row's max |P| over the grid's nodes (>= 1e-300)


def _scan(ys: np.ndarray, G: np.ndarray) -> tuple:
    """Sign scan of (B, M) grids G = P + i P' over one period from -n pi,
    one cell a node; the last cell closes on the first node (P is periodic).

    ``ys`` holds the (B, n, 2) coefficients.  The signs (x >= 0: an exact
    zero joins the + side) of P and P' at a node are one little-endian
    word, so one XOR of neighbours marks both changes: the low byte the
    crossings, 256 the stationary cells, which alone are gathered for the
    dip test, one complex gather an end.  G is scratch: once the cell ends
    are gathered, its real part is turned into |P|.  Returns (crossing,
    counts, uncertain, cells); the ``_Cells`` to audit hold no view of G."""
    B, M = G.shape
    h = grid_spacing(ys.shape[1], M)
    signs = np.empty((B, M + 1, 2), dtype=bool)  # P, P' signs in one pass
    np.greater_equal(G.view(float).reshape(B, M, 2), 0.0, out=signs[:, :M])
    signs[:, M] = signs[:, 0]  # the closing word: node 0's
    words = signs.view("<u2").reshape(B, M + 1)
    flips = words[:, 1:] ^ words[:, :-1]
    crossing = flips.view(np.uint8)[:, ::2].view(bool)
    counts = np.count_nonzero(crossing, axis=1)
    finite = np.isfinite(ys).all(axis=(1, 2))
    uncertain = ~finite | ~ys.any(axis=(1, 2))

    rows, cells = np.divmod(np.flatnonzero(flips == 256), M)
    right = cells + 1
    right[right == M] = 0
    flat, at = G.reshape(-1), rows * M  # flat gathers: one index array
    left, right = flat[at + cells], flat[at + right]
    pl, pr, ql, qr = left.real, right.real, left.imag, right.imag
    dip = np.minimum(np.abs(pl), np.abs(pr)) < 0.5 * h * np.maximum(np.abs(ql), np.abs(qr))
    audit = dip & finite[rows]
    rows = rows[audit]
    scale = np.abs(G.real, out=G.real).max(axis=1)  # |P| over one period
    found = _Cells(rows, cells[audit], pl[audit], pr[audit], ql[audit], qr[audit],
                   np.maximum(scale, 1e-300)[rows])
    return crossing, counts, uncertain, found


def _audit(ys, M, found, counts, uncertain):
    """Classify the ``_scan`` cells of any number of passes, rows offset
    into ``ys``: clean, a hidden root pair, or a tangency.

    The cubic Hermite interpolant of a cell's end values and slopes is
    within h^4/384 sup|P^(4)| of P, and, all frequencies being <= 1, sup|P^(4)|
    <= sup|P| <= scale / (1 - h^2/8) (Bernstein; ``scale`` is the grid's max
    |P| over one period, the nearest node to the maximum within h/2).  A
    cell whose interpolated extremum clears ``_HERMITE_SLACK`` times that
    bound and the tangency threshold (in units of ``scale``) keeps the
    interpolant's verdict.  The rest are resolved by Newton on P' from the
    midpoint, on the cell's Taylor series: P'' is that of d[..., 1:] with a
    zero top coefficient, and the exact P' at the left node sets the
    bracket's sign.  Adds two to ``counts`` per hidden pair and flags
    tangencies and counts over 2n in ``uncertain``.  Returns the cells,
    concatenated, and their (status, t_star)."""
    n = ys.shape[1]
    c = _Cells._make(map(np.concatenate, zip(*found))) if found else _Cells(*[np.empty(0)] * 7)
    status, t_star = np.zeros(c.rows.size, dtype=int), np.empty(c.rows.size)
    if c.rows.size:
        h = grid_spacing(n, M)
        t_left = -n * math.pi + h * c.cells
        x, val = _hermite_extremum(c.p0, c.p1, c.q0, c.q1, h)
        bound = h ** 4 / 384.0 / (1.0 - h * h / 8.0) * c.scale
        needs = np.isnan(x) | (np.abs(val) <= _HERMITE_SLACK * np.maximum(
            bound, _TANGENCY_EPS * c.scale))
        status[(~needs) & ((val >= 0.0) != (c.p0 >= 0.0))] = _AUDIT_DOUBLE
        t_star = t_left + np.where(np.isnan(x), 0.5, x) * h
        if needs.any():
            idx = np.nonzero(needs)[0]
            lo = t_left[idx]
            mid = lo + 0.5 * h
            slope, d = cell_expansions(ys, c.rows[idx], lo, h)
            d2 = np.concatenate([d[:, 1:], np.zeros((idx.size, 1))], axis=1)
            ts = _newton(lambda t: taylor_eval(d2, t - mid), lo, lo + h, mid, slope >= 0.0)
            ps = taylor_eval(d, ts - mid)[0]
            tangent = np.abs(ps) <= _TANGENCY_EPS * c.scale[idx]
            double = (~tangent) & ((ps >= 0.0) != (c.p0[idx] >= 0.0))
            status[idx] = np.select([tangent, double], [_AUDIT_TANGENT, _AUDIT_DOUBLE],
                                    default=_AUDIT_CLEAN)
            t_star[idx] = ts
        np.add.at(counts, c.rows[status == _AUDIT_DOUBLE], 2)
        uncertain[c.rows[status == _AUDIT_TANGENT]] = True
    uncertain |= counts > 2 * n
    return c, status, t_star


def count_roots(sample: CoefficientSample, tol: float | None = None) -> RootCountResult:
    """Count and refine the real roots in one period: ``_scan`` and ``_audit``
    on a batch of one, then Newton from the middle of every bracket, to tol."""
    n = sample.n
    if tol is None:
        tol = default_tol(n)
    grid = eval_grid(sample)
    h = grid.spacing
    if not 0.0 < tol < h:
        raise ValueError(f"tol={tol} outside (0, grid spacing {h})")
    G = grid.derivs[:, :2].copy().view(complex).reshape(1, -1)  # one period of P + i P'
    crossing, counts, uncertain, found = _scan(sample.y[None], G)
    cells, status, t_star = _audit(sample.y[None], grid.M, [found], counts, uncertain)
    t_left = grid.t_values()
    lo = t_left[crossing[0]]
    hi = lo + h
    up = grid.P[crossing[0]] >= 0.0
    double = status == _AUDIT_DOUBLE
    if double.any():
        tl = t_left[cells.cells[double]]
        ts = t_star[double]
        ul = cells.p0[double] >= 0.0
        lo = np.concatenate([lo, tl, ts])
        hi = np.concatenate([hi, ts, tl + h])
        up = np.concatenate([up, ul, ~ul])

    roots = np.sort(_newton(grid.eval_local, lo, hi, 0.5 * (lo + hi), up, tol))
    resid, deriv = eval_points(sample, roots)
    return RootCountResult(int(counts[0]), roots, np.abs(resid), deriv,
                           t_star[status == _AUDIT_TANGENT], bool(uncertain[0]), grid, tol)


def count_batch(ys: np.ndarray, n: int, window: str, M: int):
    """Root counts for a batch of coefficient arrays (B, n, 2).

    Fast path for Monte Carlo loops: the engine of ``count_roots`` without
    the root refinement.  ``_scan`` runs in ``pass_rows`` blocks that share
    one grid buffer (nothing it returns refers to a grid), and one ``_audit``
    resolves the candidate cells of all blocks.  Returns (counts, uncertain).
    ``window`` must be ``FULL``: a slot the benchmark passes, dropped with
    ``FULL`` by its next change (ROADMAP item 6).  A ``ys`` not of shape
    (B, n, 2) is refused.
    """
    if not isinstance(window, str) or window != FULL:
        raise ValueError(f"window must be {FULL!r}, got {window!r}")
    if np.ndim(ys) != 3 or np.shape(ys)[1:] != (n, 2):
        raise ValueError(f"ys must have shape (B, {n}, 2), got {np.shape(ys)}")
    counts, uncertain = np.empty(len(ys), dtype=np.intp), np.empty(len(ys), dtype=bool)
    step = pass_rows(n, M)
    buf = np.empty((min(step, len(ys)), M), dtype=complex)
    found = []
    for lo in range(0, len(ys), step):
        block = ys[lo:lo + step]
        # a row with an infinite coefficient gets NaN grids, then a flag
        with np.errstate(invalid="ignore"):
            G = eval_grid_batch(block, n, M, out=buf[:len(block)])
        _, counts[lo:lo + step], uncertain[lo:lo + step], cells = _scan(block, G)
        found.append(cells._replace(rows=cells.rows + lo))
    _audit(ys, M, found, counts, uncertain)
    return counts, uncertain


def check_delta(delta: float) -> None:
    """Refuse a delta that is not finite and > 0."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")


def count_kacrice(sample: CoefficientSample, delta: float = 1e-6) -> KacRiceResult:
    """Approximate-integral root count (1/2 delta) int |P'| 1_{|P|<delta}.

    Around each refined root the two |P| = delta crossings are located by
    Newton and |P'| is integrated with 15-node Gauss-Legendre between
    them; the |P| < delta dips at the audit's unresolved tangencies add
    their own mass.  The sample is flagged when delta exceeds the grid's
    safe estimate (min of |P| + |P'| on the grid and |P| at the window's
    start), when the count is uncertain, or when the delta-intervals of two
    roots overlap: then the |P| < delta set joins them and the integral
    cannot equal the count.
    """
    check_delta(delta)
    rr = count_roots(sample)
    grid = rr.grid
    safe = min(float(np.min(np.abs(grid.P) + np.abs(grid.Pprime))), abs(float(grid.P[0])))
    flagged = bool(delta > safe or rr.uncertain)

    total = 0.0
    if rr.count:
        t_lo, t_hi = _find_level_crossing(grid, rr.roots, rr.derivatives, delta)
        flagged |= bool(np.any(t_lo[1:] <= t_hi[:-1]))
        flagged |= bool(t_lo[0] + 2.0 * sample.n * math.pi <= t_hi[-1])  # across the period's end
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

    return KacRiceResult(value=total / (2.0 * delta), flagged=flagged, delta=delta,
                         safe_delta_estimate=safe, root_result=replace(rr, grid=None))


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
    for _ in range(64):
        t_out = roots + side * w
        inside = np.abs(grid.eval_local(t_out)[0]) < delta
        if not inside.any():
            break
        w = np.where(inside, 2.0 * w, w)

    def fg(t):  # |P| - delta, from t_out (>= 0) towards the root (< 0)
        p, q = grid.eval_local(t)
        return np.abs(p) - delta, np.where(p >= 0.0, q, -q)
    return _newton(fg, roots, t_out, 0.5 * (roots + t_out), False)
