"""The Gaussian variance slope cg by quadrature.

cg is the Gaussian part of the limit Var(N_n)/n -> cg + (2/15)(m4 - 3);
``mcstats.theoretical_slope`` assembles that law from the rounded constant
``GAUSSIAN_SLOPE``.  The slope constant is

    cg = (4 / 3 pi) * int_0^inf f(t) dt + 2 / sqrt(3),

    f(t) = (1 - g^2 - 3 g'^2) / (1 - g^2)^{3/2}
           * ( sqrt(1 - R*^2) + R* arcsin R* ) - 1,

with g(t) = sin(t)/t and

    R*(t) = ( g''(1 - g^2) + g g'^2 ) / ( (1/3)(1 - g^2) - g'^2 ).

Everything in f cancels violently at 0: 1 - g^2 vanishes to second order,
the R* numerator and denominator both to fourth (the denominator is
t^4/135 + ...), so below ``_T0`` every ingredient comes from its Taylor
series, derived exactly from g's at import and rounded once to double.
Series and closed forms agree to ~1e-12 at the switch.  f(0+) = -1 and f
decays like (1 - 4 cos 2t)/t^2, which the tail handler exploits: panels of
length pi up to ``tail_start``, then an envelope fit A + B cos 2t +
C sin 2t of t^2 f(t) integrated in closed form (plus integration-by-parts
boundary terms for the oscillatory part), leaving an O(T^-2) residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

from trigroots.ensemble import SQRT3, check_finite, check_positive


def _sinc_series():
    """Taylor coefficients in t^2 of (1 - g^2) / t^2 (10 terms) and, over t^4
    (9 terms each), of 1 - g^2 - 3 g'^2, the R* numerator and the R*
    denominator: exact rationals from g to t^22, rounded once to double."""
    g = np.zeros(23, dtype=object)
    g[::2] = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(12)]
    gp = P.polyder(g)
    gp2 = P.polymul(gp, gp)
    omg2 = P.polysub([1], P.polymul(g, g))
    num = P.polyadd(P.polymul(P.polyder(gp), omg2), P.polymul(g, gp2))
    den = P.polysub(omg2 / 3, gp2)
    return tuple([float(c) for c in series]
                 for series in (omg2[2:21:2], 3 * den[4:21:2], num[4:21:2], den[4:21:2]))


ONE_MINUS_G2_SERIES, PREFACTOR_NUM_SERIES, RSTAR_NUM_SERIES, RSTAR_DEN_SERIES = _sinc_series()

# Gauss-7 / Kronrod-15 pair on [-1, 1]
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870])
_IG = [1, 3, 5, 7, 9, 11, 13]

#: the tail residual after the envelope fit is O(T^-_TAIL_ORDER)
_TAIL_ORDER = 2
#: series below, closed forms above; cg moves by at most 2.1e-12 for switches in [0.02, 0.3]
_T0 = 0.05
#: refinement rounds before ``compute_cg`` gives up with ``CgConvergenceError``
_MAX_REFINEMENTS = 200


class CgConvergenceError(RuntimeError):
    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class CgResult:
    value: float
    error_estimate: float
    integral: float
    tail: float
    panels: int
    evaluations: int
    envelope: tuple[float, float, float]


def _poly_even(coeffs, t2):
    acc = np.zeros_like(t2)
    for c in reversed(coeffs):
        acc = acc * t2 + c
    return acc


def _g_arrays(t: np.ndarray):
    """(g, g', g'') in closed form; callers take t >= _T0 only."""
    s, c = np.sin(t), np.cos(t)
    return s / t, (t * c - s) / t**2, -s / t - 2.0 * c / t**2 + 2.0 * s / t**3


def _kernel_parts(t: np.ndarray):
    """(1 - g^2 - 3 g'^2, 1 - g^2, R* numerator, R* denominator): series
    below _T0 (the R* pair over t^4), one closed-form g, g', g'' above."""
    small = t < _T0
    parts = np.empty((4,) + t.shape)
    t2 = t[small] ** 2
    parts[:, small] = (t[small] ** 4 * _poly_even(PREFACTOR_NUM_SERIES, t2),
                       t2 * _poly_even(ONE_MINUS_G2_SERIES, t2),
                       _poly_even(RSTAR_NUM_SERIES, t2), _poly_even(RSTAR_DEN_SERIES, t2))
    g, gp, gpp = _g_arrays(t[~small])
    omg2 = 1.0 - g * g
    parts[:, ~small] = (omg2 - 3.0 * gp * gp, omg2,
                        gpp * omg2 + g * gp * gp, omg2 / 3.0 - gp * gp)
    return parts


def cg_integrand(t):
    """The slope integrand f(t), continuously extended by f(0) = -1."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0):
        raise ValueError("integrand needs t >= 0")
    pnum, omg2, num, den = _kernel_parts(arr)
    scale = omg2**1.5
    pref = np.divide(pnum, scale, out=np.zeros_like(scale), where=scale > 0.0)
    # prefactor 0 where (1 - g^2)^{3/2} underflows, t = 0 included: R* = 1, f = -1
    r = np.clip(num / den, -1.0, 1.0)
    omr = (den - num) / den
    one_minus_r2 = np.clip(omr * (2.0 - omr), 0.0, None)
    bracket = np.sqrt(one_minus_r2) + r * np.arcsin(r)
    out = pref * bracket - 1.0
    return float(out[0]) if np.ndim(t) == 0 else out


def _panel_rule(a: np.ndarray, b: np.ndarray):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _XK[None, :]
    vals = cg_integrand(pts.ravel()).reshape(pts.shape)
    k15 = (vals @ _WK) * half
    g7 = (vals[:, _IG] @ _WG) * half
    return k15, np.abs(k15 - g7)


def compute_cg(abs_tol: float = 1e-8, tail_start: float = 1e4) -> CgResult:
    """Adaptive Gauss-Kronrod on pi-panels to ``tail_start`` plus the envelope
    tail estimate, refined until the error estimate is below ``abs_tol``."""
    T = check_finite("tail_start", tail_start)
    if T <= 1.0:
        raise ValueError(f"tail_start must be > 1, got {T}")
    tol = check_positive("abs_tol", abs_tol)
    edges = np.arange(0.0, T, math.pi)
    edges = np.append(edges, T)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    vals, errs = _panel_rule(a, b)
    neval = 15 * a.size

    refinements = 0
    while errs.sum() > 0.5 * tol:
        if refinements >= _MAX_REFINEMENTS:
            partial = 4.0 / (3.0 * math.pi) * vals.sum() + 2.0 / SQRT3
            raise CgConvergenceError(
                f"error estimate {errs.sum():.2e} above {tol:.1e} after "
                f"{refinements} refinements", partial)
        worst = np.argsort(errs)[-8:]
        worst = worst[errs[worst] > 0.25 * tol / errs.size]
        if worst.size == 0:
            worst = np.array([int(np.argmax(errs))])
        mids = 0.5 * (a[worst] + b[worst])
        new_a = np.concatenate([a[worst], mids])
        new_b = np.concatenate([mids, b[worst]])
        nv, ne = _panel_rule(new_a, new_b)
        neval += 15 * new_a.size
        keep = np.ones(a.size, dtype=bool)
        keep[worst] = False
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        vals = np.concatenate([vals[keep], nv])
        errs = np.concatenate([errs[keep], ne])
        refinements += 1

    integral = float(vals.sum())
    quad_err = float(errs.sum())

    # Envelope fit of t^2 f(t) on [T/2, T]: the non-oscillatory A/t^2 part
    # dominates the tail; B, C enter only through O(T^-2) boundary terms.
    tfit = np.linspace(0.5 * T, T, 4096)
    ffit = cg_integrand(tfit)
    design = np.column_stack([np.ones_like(tfit), np.cos(2 * tfit), np.sin(2 * tfit)])
    target = tfit**2 * ffit
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    A, B, C = (float(c) for c in coef)
    resid = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
    tail = (A / T
            + B * (-math.sin(2 * T) / (2 * T * T))
            + C * (math.cos(2 * T) / (2 * T * T)))
    tail_err = (abs(A) + abs(B) + abs(C) + resid) / T**_TAIL_ORDER

    value = 4.0 / (3.0 * math.pi) * (integral + tail) + 2.0 / SQRT3
    err = 4.0 / (3.0 * math.pi) * (quad_err + tail_err)
    return CgResult(value=value, error_estimate=err, integral=integral,
                    tail=tail, panels=a.size, evaluations=neval,
                    envelope=(A, B, C))

