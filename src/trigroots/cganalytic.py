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
Series and closed forms agree to ~1e-12 at the switch.  f(0+) = -1, and
for large t f has an exact expansion in u = 1/t whose coefficients are
trigonometric polynomials,

    f = (1 - 4 cos 2t) u^2 + 12 sin 2t u^3
        + (3/4 + 33/2 cos 2t + 3/4 cos 4t) u^4
        + (79/4 + 30 cos 2t + 93/20 cos 4t - 2/5 cos 6t) u^6 + ...,

with no u^5 term (``_TAIL_SERIES`` holds it through u^10).  ``compute_cg``
integrates panels of length pi up to ``tail_start`` and the series past it
in closed form: a mean term u^m gives T^(1-m)/(m-1), an e^(iwt) u^m term
its integration-by-parts series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trigroots.ensemble import SQRT3, check_finite, check_positive


def _sinc_series():
    """Taylor coefficients in t^2 of (1 - g^2) / t^2 (10 terms) and, over t^4
    (9 terms each), of 1 - g^2 - 3 g'^2, the R* numerator and the R*
    denominator: exact from g to t^22 in integers over D = 23!, and rounded
    once to double by Python's correctly rounded int / int."""
    D = math.factorial(23)
    g = [0] * 23
    g[::2] = [(-1) ** k * D // math.factorial(2 * k + 1) for k in range(12)]

    def der(p):
        return [i * c for i, c in enumerate(p)][1:]

    def mul(p, q):  # the t^0 ... t^20 coefficients of p q
        out = [0] * 21
        for i, a in enumerate(p[:21]):
            for j, b in enumerate(q[:21 - i]):
                out[i + j] += a * b
        return out

    gp = der(g)
    gp2 = mul(gp, gp)
    omg2 = [(i == 0) * D * D - c for i, c in enumerate(mul(g, g))]  # over D^2
    pnum = [a - 3 * b for a, b in zip(omg2, gp2)]  # 3 x the R* denominator, over D^2
    num = [a + b for a, b in zip(mul(der(gp), omg2), mul(g, gp2))]  # over D^3
    return ([c / D**2 for c in omg2[2:21:2]], [c / D**2 for c in pnum[4:21:2]],
            [c / D**3 for c in num[4:21:2]], [c / (3 * D**2) for c in pnum[4:21:2]])


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

#: f's series in u = 1/t, u^2 ... u^10: row m - 2 holds the a_j of its terms
#: a_j cos(2jt) u^m (m even) or a_j sin(2jt) u^m (m odd), j = 0, 1, ...; exact
#: rationals, each rounded once by int / int (the tests' oracle re-derives them)
_TAIL_SERIES = (
    (1, -4),
    (0, 12),
    (3 / 4, 33 / 2, 3 / 4),
    (),
    (79 / 4, 30, 93 / 20, -2 / 5),
    (0, 0, -27 / 10, 9 / 5),
    (5617 / 64, 8713 / 80, 215 / 16, 653 / 112, 121 / 2240),
    (0, 429 / 20, 39 / 5, -1773 / 140, 33 / 140),
    (26661 / 64, 9867 / 20, 37497 / 560, -7419 / 1120, 3981 / 2240, -9 / 224),
)
_TAIL_M, _TAIL_W, _TAIL_A = (np.array(v) for v in zip(*[
    (m, 2 * j, a) for m, row in enumerate(_TAIL_SERIES, 2) for j, a in enumerate(row) if a]))
#: terms of each e^(iwt) u^m term's integration-by-parts series
_PARTS_TERMS = 20
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


def _tail_series(t: np.ndarray) -> np.ndarray:
    """f's u-series through u^10 at each t."""
    phase = np.multiply.outer(t, _TAIL_W)
    trig = np.where(_TAIL_M % 2 == 1, np.sin(phase), np.cos(phase))
    return (_TAIL_A * trig * np.power.outer(t, -_TAIL_M)).sum(axis=-1)


def _tail(T: float):
    """(the u-series integrated over [T, inf), an error estimate: a bound on
    what the integration-by-parts series leave out plus the series' own
    remainder, measured at the Kronrod nodes on [T, T + pi])."""
    mean = _TAIL_W == 0
    m, a = _TAIL_M[mean], _TAIL_A[mean]
    total = float((a * T ** (1 - m) / (m - 1)).sum())
    m, w, a = _TAIL_M[~mean], _TAIL_W[~mean], _TAIL_A[~mean]
    # int_T^inf e^(iwt) t^-m dt = (i/w) e^(iwT) T^-m sum_k (m)_k (-i / wT)^k
    k = np.arange(_PARTS_TERMS + 1)
    ratios = (m[:, None] + k - 1) * (-1j / (w[:, None] * T))
    ratios[:, 0] = 1.0
    terms = np.cumprod(ratios, axis=1)
    z = 1j / w * np.exp(1j * w * T) * T ** -m * terms[:, :-1].sum(axis=1)
    total += float((a * np.where(m % 2 == 1, z.imag, z.real)).sum())
    # the k = _PARTS_TERMS remainder is (m)_K / (iw)^K int_T^inf e^(iwt) t^(-m-K) dt
    left = np.abs(a * terms[:, -1]) * T ** (1 - m) / (m + _PARTS_TERMS - 1)
    # the series' own remainder is O(t^-11): carried on from [T, T + pi] as (T/t)^11
    tt = T + 0.5 * math.pi * (1.0 + _XK)
    gap = np.abs(cg_integrand(tt) - _tail_series(tt)) * (tt / T) ** 11
    return total, float(left.sum()) + float(gap.max()) * T / 10.0


def compute_cg(abs_tol: float = 1e-8, tail_start: float = 16 * math.pi) -> CgResult:
    """Adaptive Gauss-Kronrod on pi-panels to ``tail_start`` plus the u-series
    tail in closed form.  The panels are refined until their error estimate
    is below ``abs_tol`` / 2; ``CgConvergenceError`` (with the value as its
    ``partial``) if they are not after ``_MAX_REFINEMENTS`` rounds, or if the
    estimate with the tail's truncation error is above ``abs_tol``."""
    T = check_finite("tail_start", tail_start)
    if T <= 1.0:
        raise ValueError(f"tail_start must be > 1, got {T}")
    tol = check_positive("abs_tol", abs_tol)
    scale = 4.0 / (3.0 * math.pi)
    tail, tail_err = _tail(T)
    edges = np.arange(0.0, T, math.pi)
    edges = np.append(edges, T)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    vals, errs = _panel_rule(a, b)
    neval = _XK.size + 15 * a.size  # the tail's nodes and the panels'

    refinements = 0
    while errs.sum() > 0.5 * tol:
        if refinements >= _MAX_REFINEMENTS:
            raise CgConvergenceError(
                f"error estimate {errs.sum():.2e} above {tol:.1e} after "
                f"{refinements} refinements", scale * (vals.sum() + tail) + 2.0 / SQRT3)
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
    value = scale * (integral + tail) + 2.0 / SQRT3
    err = scale * (float(errs.sum()) + tail_err)
    if err > tol:
        raise CgConvergenceError(
            f"error estimate {err:.2e} above {tol:.1e}, {scale * tail_err:.1e} of it "
            f"from the u-series tail past tail_start {T:g}", value)
    return CgResult(value=value, error_estimate=err, integral=integral,
                    tail=tail, panels=a.size, evaluations=neval)
