"""Independent slow oracles that the tests compare the program against.

Each one takes a different route to a quantity the program computes fast:
compensated extended-precision point sums for the FFT grid and the
vectorized evaluator, the roots of an algebraic polynomial for the root
count, the dense all-cells formula for the engine's sign scan and audit
selection, density quadrature for the xi-norm series, and the normal CDF
for the one-dimensional small-ball scan.
"""

import math
from math import fsum

import numpy as np
from scipy.integrate import quad

from trigroots.ensemble import (
    SQRT3,
    CoefficientSample,
    DistributionError,
    DistributionSpec,
    xi_norm_sq,
)
from trigroots.polyeval import WindowSpec

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


def dense_scan(ys: np.ndarray, P: np.ndarray, Q: np.ndarray,
               window: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """(crossing, audit) masks of (B, M) grids of P and P' over all cells.

    The right-hand end values of every cell are built as whole shifted
    grids (the closing value at n pi summed exactly, with the exact (-1)^i
    phases, for the half window), and the dip test is evaluated
    everywhere: a cell is audited when P keeps its sign, P' changes sign,
    and min |P| < (h/2) max |P'| over its two ends.  Exact zeros join the +
    side.
    """
    n, M = ys.shape[1], P.shape[1]
    h = window.length(n) / M
    if window.circular:
        Pr, Qr = np.roll(P, -1, axis=1), np.roll(Q, -1, axis=1)
    else:
        i = np.arange(1, n + 1)
        alt = (-1.0) ** i  # cos(i pi); sin(i pi) = 0
        p_end = np.array([fsum(r) for r in ys[:, :, 0] * alt]) / math.sqrt(n)
        q_end = np.array([fsum(r) for r in ys[:, :, 1] * (alt * i / n)]) / math.sqrt(n)
        Pr = np.concatenate([P[:, 1:], p_end[:, None]], axis=1)
        Qr = np.concatenate([Q[:, 1:], q_end[:, None]], axis=1)

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


def normal_interval_probability(variance: float, center: float, delta: float) -> float:
    """P(|Z - center| < delta) for Z ~ N(0, variance)."""
    sd = math.sqrt(variance)
    a = (center - delta) / sd
    b = (center + delta) / sd
    return 0.5 * (math.erf(b / math.sqrt(2)) - math.erf(a / math.sqrt(2)))
