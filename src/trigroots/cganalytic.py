"""Gaussian variance slope by quadrature, and the fourth-moment correctors.

The slope constant is

    cg = (4 / 3 pi) * int_0^inf f(t) dt + 2 / sqrt(3),

    f(t) = (1 - g^2 - 3 g'^2) / (1 - g^2)^{3/2}
           * ( sqrt(1 - R*^2) + R* arcsin R* ) - 1,

with g(t) = sin(t)/t and

    R*(t) = ( g''(1 - g^2) + g g'^2 ) / ( (1/3)(1 - g^2) - g'^2 ).

Everything in f cancels violently at 0: 1 - g^2 vanishes to second order,
the R* numerator and denominator both to fourth (the denominator is
t^4/135 + ...), so below ``t0`` every ingredient is evaluated from exact
rational Taylor coefficients; the series and closed forms agree to ~1e-12
across the switchover.  f(0+) = -1 and f decays like (1 - 4 cos 2t)/t^2,
which the tail handler exploits: panels of length pi up to ``tail_start``,
then an envelope fit A + B cos 2t + C sin 2t of t^2 f(t) integrated in
closed form (plus integration-by-parts boundary terms for the oscillatory
part), leaving an O(T^-2) residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)

# Exact Taylor coefficients in t^2 (rationals rounded once to double).
# g(t) = sum_k G_SERIES[k] t^{2k}, and analogously with the stated leading
# powers; derived from sin(t)/t and checked against high-precision direct
# evaluation in the test suite.
G_SERIES = [1.0, -1/6, 1/120, -1/5040, 1/362880, -1/39916800, 1/6227020800,
            -1/1307674368000, 1/355687428096000, -1/121645100408832000,
            1/51090942171709440000]
# g'(t) = t * sum_k GP_SERIES[k] t^{2k}
GP_SERIES = [-1/3, 1/30, -1/840, 1/45360, -1/3991680, 1/518918400,
             -1/93405312000, 1/22230464256000, -1/6758061133824000,
             1/2554547108585472000, -1/1175091669949317120000]
GPP_SERIES = [-1/3, 1/10, -1/168, 1/6480, -1/443520, 1/47174400,
              -1/7185024000, 1/1482030950400, -1/397533007872000,
              1/134449847820288000, -1/55956746188062720000]
# 1 - g^2 = t^2 * sum_k ...
ONE_MINUS_G2_SERIES = [1/3, -2/45, 1/315, -2/14175, 2/467775, -4/42567525,
                       1/638512875, -2/97692469875, 2/9280784638125,
                       -4/2143861251406875]
# 1 - g^2 - 3 g'^2 = t^4 * sum_k ...
PREFACTOR_NUM_SERIES = [1/45, -4/1575, 2/14175, -16/3274425, 1/8513505,
                        -4/1915538625, 2/69780335625, -32/102088631019375,
                        2/714620417135625]
# g''(1-g^2) + g g'^2 = t^4 * sum_k ...
RSTAR_NUM_SERIES = [1/135, -1/1050, 1/16200, -713/261954000, 823/9081072000,
                    -1171/490377888000, 919/17955374976000,
                    -29609/32523169206528000, 1598897/117083409143500800000]
# (1/3)(1-g^2) - g'^2 = t^4 * sum_k ...
RSTAR_DEN_SERIES = [1/135, -4/4725, 2/42525, -16/9823275, 1/25540515,
                    -4/5746615875, 2/209341006875, -32/306265893058125,
                    2/2143861251406875]

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


class CgConvergenceError(RuntimeError):
    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class RStarDomainError(ValueError):
    """|R*| exceeded 1 beyond the allowed clamping slack."""


@dataclass(frozen=True)
class CgQuadratureConfig:
    t0: float = 0.05
    tail_start: float = 1e4
    abs_tol: float = 1e-8
    max_refinements: int = 200

    def __post_init__(self):
        if not 0.0 < self.t0 < 1.0 < self.tail_start:
            raise ValueError("require 0 < t0 < 1 < tail_start")


@dataclass(frozen=True)
class SpectralFunctions:
    g: float
    gprime: float
    gdoubleprime: float


@dataclass(frozen=True)
class CgResult:
    value: float
    error_estimate: float
    integral: float
    tail: float
    panels: int
    evaluations: int
    envelope: tuple[float, float, float]

    def __float__(self):
        return self.value


def _poly_even(coeffs, t2):
    acc = np.zeros_like(t2)
    for c in reversed(coeffs):
        acc = acc * t2 + c
    return acc


def _g_arrays(t: np.ndarray, t0: float):
    small = t < t0
    g = np.empty_like(t)
    gp = np.empty_like(t)
    gpp = np.empty_like(t)
    ts = t[small]
    t2 = ts * ts
    g[small] = _poly_even(G_SERIES, t2)
    gp[small] = ts * _poly_even(GP_SERIES, t2)
    gpp[small] = _poly_even(GPP_SERIES, t2)
    tl = t[~small]
    s, c = np.sin(tl), np.cos(tl)
    g[~small] = s / tl
    gp[~small] = (tl * c - s) / tl**2
    gpp[~small] = -s / tl - 2.0 * c / tl**2 + 2.0 * s / tl**3
    return g, gp, gpp


def g_funcs(t: float, t0: float = 0.05) -> SpectralFunctions:
    """g, g', g'' at a point (series below t0, closed forms above)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    arr = np.array([float(t)])
    g, gp, gpp = _g_arrays(arr, t0)
    return SpectralFunctions(float(g[0]), float(gp[0]), float(gpp[0]))


def _rstar_parts(t: np.ndarray, t0: float):
    """(R*, 1 - R*) with the difference formed cancellation-free."""
    small = t < t0
    r = np.empty_like(t)
    omr = np.empty_like(t)
    ts = t[small]
    t2 = ts * ts
    num = _poly_even(RSTAR_NUM_SERIES, t2)
    den = _poly_even(RSTAR_DEN_SERIES, t2)
    r[small] = num / den
    omr[small] = (den - num) / den
    tl = t[~small]
    g, gp, gpp = _g_arrays(tl, t0)
    nn = gpp * (1.0 - g * g) + g * gp * gp
    dd = (1.0 - g * g) / 3.0 - gp * gp
    r[~small] = nn / dd
    omr[~small] = (dd - nn) / dd
    return r, omr


def rstar(t, t0: float = 0.05, clamp_slack: float = 1e-9):
    """The correlation-ratio function of the slope integrand.

    Values are clamped to [-1, 1] when within ``clamp_slack``; a larger
    excursion means the series and closed forms disagree and raises.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr <= 0):
        raise ValueError("rstar needs t > 0")
    r, _ = _rstar_parts(arr, t0)
    over = np.maximum(np.abs(r) - 1.0, 0.0)
    if np.any(over > clamp_slack):
        raise RStarDomainError(f"|R*| - 1 = {over.max():.3e} exceeds slack")
    r = np.clip(r, -1.0, 1.0)
    return float(r[0]) if np.ndim(t) == 0 else r


def cg_integrand(t, t0: float = 0.05):
    """The slope integrand f(t), continuously extended by f(0) = -1."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0):
        raise ValueError("integrand needs t >= 0")
    out = np.empty_like(arr)
    small = arr < t0
    ts = arr[small]
    t2 = ts * ts
    num = ts**4 * _poly_even(PREFACTOR_NUM_SERIES, t2)
    omg2 = t2 * _poly_even(ONE_MINUS_G2_SERIES, t2)
    with np.errstate(invalid="ignore", divide="ignore"):
        pref_small = np.where(ts > 0.0, num / omg2**1.5, 0.0)
    tl = arr[~small]
    g, gp, gpp = _g_arrays(tl, t0)
    omg2_l = 1.0 - g * g
    pref_large = (omg2_l - 3.0 * gp * gp) / omg2_l**1.5
    pref = np.empty_like(arr)
    pref[small] = pref_small
    pref[~small] = pref_large

    r, omr = _rstar_parts(np.maximum(arr, 1e-300), t0)
    r = np.clip(r, -1.0, 1.0)
    one_minus_r2 = np.clip(omr * (2.0 - omr), 0.0, None)
    bracket = np.sqrt(one_minus_r2) + r * np.arcsin(r)
    out = pref * bracket - 1.0
    out[arr == 0.0] = -1.0
    return float(out[0]) if np.ndim(t) == 0 else out


def _panel_rule(a: np.ndarray, b: np.ndarray, t0: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _XK[None, :]
    vals = cg_integrand(pts.ravel(), t0).reshape(pts.shape)
    k15 = (vals @ _WK) * half
    g7 = (vals[:, _IG] @ _WG) * half
    return k15, np.abs(k15 - g7)


def compute_cg(config: CgQuadratureConfig = CgQuadratureConfig()) -> CgResult:
    """Adaptive Gauss-Kronrod on pi-panels plus the envelope tail estimate."""
    t0, T, tol = config.t0, config.tail_start, config.abs_tol
    edges = np.arange(0.0, T, math.pi)
    edges = np.append(edges, T)
    a = edges[:-1].copy()
    b = edges[1:].copy()
    vals, errs = _panel_rule(a, b, t0)
    neval = 15 * a.size

    refinements = 0
    while errs.sum() > 0.5 * tol:
        if refinements >= config.max_refinements:
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
        nv, ne = _panel_rule(new_a, new_b, t0)
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
    ffit = cg_integrand(tfit, t0)
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


def ystar(y4) -> float:
    """Fourth-moment corrector from the limiting coefficient moments.

    ``y4`` maps the index tuples (1,1,2,2), (2,2,1,1), (1,1,1,1), (2,2,2,2)
    to the limits of E[y_1^a y_2^b]; the combination measures the total
    deviation from Gaussian fourth moments.
    """
    return ((y4[(1, 1, 2, 2)] - 1.0) + (y4[(2, 2, 1, 1)] - 1.0)
            + (y4[(1, 1, 1, 1)] - 3.0) + (y4[(2, 2, 2, 2)] - 3.0))


def ystar_iid(m4: float) -> float:
    """iid specialization: mixed moments are exactly 1, pure ones are m4."""
    return ystar({(1, 1, 2, 2): 1.0, (2, 2, 1, 1): 1.0,
                  (1, 1, 1, 1): m4, (2, 2, 2, 2): m4})
