"""Third/fourth-moment correctors of the central limit approximation.

The walk increment X_k = C_n(k) Y_k deviates from its Gaussian counterpart
G_k = C_n(k) W_k only through third and fourth moments.  The machinery
here averages those deviations,

    Delta_alpha(X_k) = E X_k^alpha - E G_k^alpha,
    c_n(alpha)       = (1/n) sum_k Delta_alpha(X_k),

the weight of alpha's Hermite product in the paper's Edgeworth factor
Q_2 (the test suite's oracles assemble Q_2 from ``c_n_alpha``).

Expanding prod_j (C Y)_{alpha_j} over the two independent entries of Y
gives terms E xi^{m-c} E xi^c.  A mixed term (0 < c < m) holds only
moments of order <= 2, or a first moment, so it equals its Gaussian value
and cancels; only the pure terms c = 0 and c = m remain (Bhattacharya &
Rao, *Normal Approximation and Asymptotic Expansions*, 1976):

    Delta_alpha(X_k) = (E xi^m - E g^m) sum_l prod_j C_n(k)[alpha_j, l],

a product of named rows of ``polyeval.coefficient_columns``.  X is rescaled
by diag(lambda)^{-1/2} with lambda = (1, 1/3) respectively (1, 1/3, 1, 1/3),
the limit of the walk's average covariance;
``gauss_expect_psi_H`` computes the matching Gaussian functionals
E[Psi_delta(diag(lambda)^{1/2} W) prod_j h_{n_j(alpha)}(W_j)], with h_m the
probabilists' Hermite polynomials and n_j(alpha) the coordinate
multiplicities, as a product of closed-form 1-D factors.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from trigroots.ensemble import DistributionSpec, check_integer, check_positive, moments
from trigroots.polyeval import coefficient_columns

LAMBDA_2 = (1.0, 1.0 / 3.0)
LAMBDA_4 = (1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)


def hermite(k: int, x):
    """Probabilists' Hermite polynomial h_k via the three-term recurrence."""
    k = check_integer("k", k, 0)
    x = np.asarray(x, dtype=float)
    h_prev, h = np.zeros_like(x), np.ones_like(x)  # h_{-1} = 0, h_0 = 1
    for j in range(k):
        h, h_prev = x * h - j * h_prev, h
    return h if h.ndim else float(h)


def _indices(alpha, d: int) -> tuple[int, ...]:
    """A 1-based multi-index, refused unless every index is an integer in 1..d."""
    alpha = tuple(alpha)
    bad = [a for a in alpha if isinstance(a, bool) or not isinstance(a, numbers.Integral)
           or not 1 <= a <= d]
    if bad:
        raise ValueError(f"multi-index {alpha}: index {bad[0]!r} is not an integer in 1..{d}")
    return tuple(int(a) for a in alpha)


def multiplicities(alpha, d: int) -> tuple[int, ...]:
    """Coordinate multiplicities n_j(alpha) of a 1-based multi-index."""
    alpha = _indices(alpha, d)
    return tuple(sum(1 for a in alpha if a == j) for j in range(1, d + 1))


def c_n_alpha(n: int, t: float, dist: DistributionSpec, alpha,
              s: float | None = None) -> float:
    """Average moment deviation (1/n) sum_k Delta_alpha of the scaled walk,

        excess / prod_j sqrt(lambda[alpha_j]) * mean_k sum_l prod_j C[k, alpha_j, l],

    the pure-moment closed form (module docstring) with excess = m3 at
    order 3 and m4 - 3 at order 4, indices in 1..2, or 1..4 with s; it
    multiplies only the named rows' length-n ``coefficient_columns``.
    """
    lam = LAMBDA_2 if s is None else LAMBDA_4
    idx = [a - 1 for a in _indices(alpha, len(lam))]
    if len(idx) not in (3, 4):
        raise ValueError("corrector multi-indices have order 3 or 4")
    prof = moments(dist)
    excess = prof.m3 if len(idx) == 3 else prof.excess_kurtosis
    rows = coefficient_columns(n, t, s, only=idx)
    pure = [rows[idx[0]][l] * rows[idx[1]][l] for l in (0, 1)]
    for i in idx[2:]:
        for col, factor in zip(pure, rows[i]):
            col *= factor
    pure[0] += pure[1]
    scale = math.prod(math.sqrt(lam[i]) for i in idx)
    return excess / scale * float(np.mean(pure[0]))


def _phi(w):
    return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)


def _indicator_factor(k: int, delta: float | None, lam: float) -> float:
    """E[F_delta(sqrt(lam) W) h_k(W)], F_delta = 1_{|x|<delta}/(2 delta), in closed
    form by (h_k phi)' = -h_{k+1} phi; ``delta=None`` is the pointwise limit."""
    if k % 2 == 1:
        return 0.0
    if delta is None:
        return float(hermite(k, 0.0)) * _phi(0.0) / math.sqrt(lam)
    c = delta / math.sqrt(lam)
    if k == 0:
        return math.erf(c / math.sqrt(2.0)) / (2.0 * delta)
    return -float(hermite(k - 1, c)) * _phi(c) / delta


def _abs_factor(k: int, lam: float) -> float:
    """E[|sqrt(lam) W| h_k(W)] in closed form: 2 sqrt(lam) phi(0) h_{k-2}(0),
    integrating by parts twice (2 sqrt(lam) phi(0) at k = 0)."""
    if k % 2 == 1:
        return 0.0
    h = 1.0 if k == 0 else float(hermite(k - 2, 0.0))
    return 2.0 * math.sqrt(lam) * _phi(0.0) * h


def gauss_expect_psi_H(alpha, delta: float | None = None) -> float:
    """E[Psi_delta(diag(lambda)^{1/2} W) prod_j h_{n_j(alpha)}(W_j)] for
    standard Gaussian W.

    Psi pairs an indicator kernel on coordinates 1, 3 with |.| weights on
    coordinates 2, 4; the expectation factorizes into four 1-D factors,
    each in closed form.  ``delta=None`` takes the kernel's point-evaluation
    limit; any other delta must be finite and > 0.  Odd multiplicity in any
    coordinate gives 0 exactly by parity.
    """
    if delta is not None:
        check_positive("delta", delta)
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
