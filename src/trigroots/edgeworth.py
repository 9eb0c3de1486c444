"""Third/fourth-moment correctors of the central limit approximation.

The walk increment X_k = C_n(k) Y_k deviates from its Gaussian counterpart
G_k = C_n(k) W_k only through third and fourth moments.  The machinery
here averages those deviations,

    Delta_alpha(X_k) = E X_k^alpha - E G_k^alpha,
    c_n(alpha)       = (1/n) sum_k Delta_alpha(X_k),

the weight of alpha's Hermite product in the paper's Edgeworth factor
Q_2 (the test suite's oracles assemble Q_2 from ``c_n_alpha``).

X is rescaled by diag(lambda)^{-1/2} with lambda = (1, 1/3) respectively
(1, 1/3, 1, 1/3), the limit of the walk's average covariance;
``gauss_expect_psi_H`` computes the matching Gaussian functionals
E[Psi_delta(diag(lambda)^{1/2} W) prod_j h_{n_j(alpha)}(W_j)], with h_m the
probabilists' Hermite polynomials and n_j(alpha) the coordinate
multiplicities, by coordinate factorization.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from trigroots.ensemble import DistributionSpec, moments
from trigroots.polyeval import coefficient_matrices

LAMBDA_2 = (1.0, 1.0 / 3.0)
LAMBDA_4 = (1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)

#: absolute tolerance of the 1-D quadratures behind ``gauss_expect_psi_H``
_QUAD_TOL = 1e-10

_GAUSSIAN_MOMENTS = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}


def _scalar_moments(dist: DistributionSpec) -> dict[int, float]:
    prof = moments(dist)
    return {0: 1.0, 1: 0.0, 2: 1.0, 3: prof.m3, 4: prof.m4}


def hermite(k: int, x):
    """Probabilists' Hermite polynomial h_k via the three-term recurrence."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for j in range(1, k):
        h, h_prev = x * h - j * h_prev, h
    return h if h.ndim else float(h)


def multiplicities(alpha, d: int) -> tuple[int, ...]:
    """Coordinate multiplicities n_j(alpha) of a 1-based multi-index."""
    alpha = tuple(int(a) for a in alpha)
    if any(not 1 <= a <= d for a in alpha):
        raise ValueError(f"multi-index {alpha} outside 1..{d}")
    return tuple(sum(1 for a in alpha if a == j) for j in range(1, d + 1))


def _moment_stack(C: np.ndarray, mom: dict[int, float], alpha) -> np.ndarray:
    """Vectorized moment expansion over a stack of matrices (n, d, 2)."""
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


def _scaled_matrices(n: int, t: float, s: float | None) -> np.ndarray:
    C = coefficient_matrices(n, t, s)
    lam = np.asarray(LAMBDA_2 if s is None else LAMBDA_4, dtype=float)
    return C / np.sqrt(lam)[None, :, None]


def c_n_alpha(n: int, t: float, dist: DistributionSpec, alpha,
              s: float | None = None) -> float:
    """Average moment deviation (1/n) sum_k Delta_alpha of the scaled walk."""
    order = len(tuple(alpha))
    if order not in (3, 4):
        raise ValueError("corrector multi-indices have order 3 or 4")
    C = _scaled_matrices(n, t, s)
    mom = _scalar_moments(dist)
    dy = _moment_stack(C, mom, alpha)
    dg = _moment_stack(C, _GAUSSIAN_MOMENTS, alpha)
    return float(np.mean(dy - dg))


def _phi(w):
    return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)


def _indicator_factor(k: int, delta: float | None, lam: float) -> float:
    """E[F_delta(sqrt(lam) W) h_k(W)]; the delta -> 0 limit is pointwise."""
    if k % 2 == 1:
        return 0.0
    if delta is None or delta == 0.0:
        return float(hermite(k, 0.0)) * _phi(0.0) / math.sqrt(lam)
    c = delta / math.sqrt(lam)
    val, _ = quad(lambda w: hermite(k, w) * _phi(w), -c, c,
                  epsabs=_QUAD_TOL, epsrel=0.0, limit=200)
    return val / (2.0 * delta)


def _abs_factor(k: int, lam: float) -> float:
    """E[|sqrt(lam) W| h_k(W)]."""
    if k % 2 == 1:
        return 0.0
    val, _ = quad(lambda w: w * hermite(k, w) * _phi(w), 0.0, 40.0,
                  epsabs=_QUAD_TOL, epsrel=0.0, limit=200)
    return 2.0 * val * math.sqrt(lam)


def gauss_expect_psi_H(alpha, delta: float | None = None) -> float:
    """E[Psi_delta(diag(lambda)^{1/2} W) prod_j h_{n_j(alpha)}(W_j)] for
    standard Gaussian W.

    Psi pairs an indicator kernel on coordinates 1, 3 with |.| weights on
    coordinates 2, 4; the expectation factorizes into four 1-D integrals.
    ``delta=None`` takes the kernel's point-evaluation limit.  Odd
    multiplicity in any coordinate gives 0 exactly by parity.
    """
    mult = multiplicities(alpha, 4)
    if any(m % 2 for m in mult):
        return 0.0
    out = 1.0
    for j, m in enumerate(mult):
        if j in (0, 2):
            out *= _indicator_factor(m, delta, LAMBDA_4[j])
        else:
            out *= _abs_factor(m, LAMBDA_4[j])
    return out
