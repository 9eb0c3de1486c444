"""Third/fourth-moment correctors of the central limit approximation.

The walk increment X_k = C_n(k) Y_k deviates from its Gaussian counterpart
G_k = C_n(k) W_k only through third and fourth moments.  The machinery
here averages those deviations,

    Delta_alpha(X_k) = E X_k^alpha - E G_k^alpha,
    c_n(alpha)       = (1/n) sum_k Delta_alpha(X_k),

and assembles the correction factors

    Gamma_1  = (1/6)  sum_{|alpha|=3} c_n(alpha) H_alpha(x),
    Gamma_2' = (1/24) sum_{|beta|=4}  c_n(beta)  H_beta(x),
    Gamma_2''= (1/72) sum_{|rho|=3} sum_{|beta|=3}
               c_n(beta) c_n(rho) H_{beta,rho}(x),
    Q_2      = 1 + Gamma_1 / sqrt(n) + (Gamma_2' + Gamma_2'') / n,

where H_alpha is the product of probabilists' Hermite polynomials with the
coordinate multiplicities of alpha.  Multi-index sums run over ordered
tuples in {1..d}^m (H is permutation invariant, so each unordered class is
weighted by its number of orderings); the double sum in Gamma_2'' counts
(beta, rho) and (rho, beta) separately.

By default X is rescaled by diag(lambda)^{-1/2} with lambda = (1, 1/3)
respectively (1, 1/3, 1, 1/3), the limit of the walk's average covariance;
``gauss_expect_psi_H`` computes the matching Gaussian functionals
E[Psi_delta(diag(lambda)^{1/2} W) H_alpha(W)] by coordinate factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.integrate import quad

from trigroots.charprobe import FeasibilityError
from trigroots.ensemble import DistributionSpec, moments
from trigroots.polyeval import coefficient_matrices, basis_matrices

DEFAULT_LAMBDA_2 = (1.0, 1.0 / 3.0)
DEFAULT_LAMBDA_4 = (1.0, 1.0 / 3.0, 1.0, 1.0 / 3.0)

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


def H_alpha(alpha, x) -> float:
    """Product of Hermite polynomials with alpha's coordinate multiplicities."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    out = 1.0
    for j, m in enumerate(multiplicities(alpha, d)):
        if m:
            out = out * hermite(m, x[..., j])
    return out if np.ndim(out) else float(out)


def moment_EXalpha(C: np.ndarray, dist: DistributionSpec, alpha) -> float:
    """E prod_j (C Y)_{alpha_j} for Y with iid coordinates from ``dist``.

    Expands over the 2^|alpha| coordinate assignments; the Y-expectation
    factorizes into the scalar moments of each coordinate.
    """
    C = np.asarray(C, dtype=float)
    mom = _scalar_moments(dist)
    return float(_moment_stack(C[None, :, :], mom, alpha)[0])


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


def _scaled_matrices(n: int, t: float, s: float | None, lambdas) -> np.ndarray:
    C = coefficient_matrices(n, t, s)
    d = C.shape[1]
    if lambdas is None:
        lambdas = DEFAULT_LAMBDA_2 if d == 2 else DEFAULT_LAMBDA_4
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (d,) or np.any(lam <= 0):
        raise ValueError("lambdas must be positive and match the dimension")
    return C / np.sqrt(lam)[None, :, None]


def c_n_alpha(n: int, t: float, dist: DistributionSpec, alpha,
              s: float | None = None, lambdas=None) -> float:
    """Average moment deviation (1/n) sum_k Delta_alpha of the scaled walk."""
    order = len(tuple(alpha))
    if order not in (3, 4):
        raise ValueError("corrector multi-indices have order 3 or 4")
    C = _scaled_matrices(n, t, s, lambdas)
    mom = _scalar_moments(dist)
    dy = _moment_stack(C, mom, alpha)
    dg = _moment_stack(C, _GAUSSIAN_MOMENTS, alpha)
    return float(np.mean(dy - dg))


def _c_n_table(n, t, dist, s, lambdas, order):
    """c_n over all ordered tuples of the given order, keyed by tuple.

    Permutation invariance cuts the distinct evaluations to the sorted
    tuples.
    """
    C = _scaled_matrices(n, t, s, lambdas)
    d = C.shape[1]
    mom = _scalar_moments(dist)
    cache: dict[tuple, float] = {}
    table: dict[tuple, float] = {}
    for alpha in product(range(1, d + 1), repeat=order):
        key = tuple(sorted(alpha))
        if key not in cache:
            dy = _moment_stack(C, mom, key)
            dg = _moment_stack(C, _GAUSSIAN_MOMENTS, key)
            cache[key] = float(np.mean(dy - dg))
        table[alpha] = cache[key]
    return table


def _gamma2_doubleprime(c3: dict, x) -> float:
    # both (beta, rho) and (rho, beta) orders are summed, matching the
    # 1/72 normalization of the tuple double sum
    tot = 0.0
    for beta, cb in c3.items():
        if cb == 0.0:
            continue
        for rho, cr in c3.items():
            if cr == 0.0:
                continue
            tot += cb * cr * H_alpha(beta + rho, x)
    return tot / 72.0


@dataclass(frozen=True)
class CorrectorTerms:
    n: int
    dim: int
    c3: dict
    c4: dict
    gamma1: float
    gamma2_prime: float
    gamma2_doubleprime: float
    q_n2: float

    @property
    def gamma2(self) -> float:
        return self.gamma2_prime + self.gamma2_doubleprime

    def gamma1_at(self, x) -> float:
        return sum(c * H_alpha(a, x) for a, c in self.c3.items()) / 6.0

    def gamma2_prime_at(self, x) -> float:
        return sum(c * H_alpha(a, x) for a, c in self.c4.items()) / 24.0

    def gamma2_doubleprime_at(self, x) -> float:
        return _gamma2_doubleprime(self.c3, x)

    def q_n2_at(self, x) -> float:
        g2 = self.gamma2_prime_at(x) + self.gamma2_doubleprime_at(x)
        return 1.0 + self.gamma1_at(x) / math.sqrt(self.n) + g2 / self.n


def gamma_terms(n: int, t: float, dist: DistributionSpec, x,
                s: float | None = None, lambdas=None) -> CorrectorTerms:
    """All corrector values at the point x, plus the c_n tables behind them."""
    x = np.asarray(x, dtype=float)
    d = 2 if s is None else 4
    if x.shape != (d,):
        raise ValueError(f"x must have dimension {d}")
    c3 = _c_n_table(n, t, dist, s, lambdas, 3)
    c4 = _c_n_table(n, t, dist, s, lambdas, 4)
    g1 = sum(c * H_alpha(a, x) for a, c in c3.items()) / 6.0
    g2p = sum(c * H_alpha(a, x) for a, c in c4.items()) / 24.0
    g2pp = _gamma2_doubleprime(c3, x)
    q = 1.0 + g1 / math.sqrt(n) + (g2p + g2pp) / n
    return CorrectorTerms(n=n, dim=d, c3=c3, c4=c4, gamma1=g1,
                          gamma2_prime=g2p, gamma2_doubleprime=g2pp, q_n2=q)


def _phi(w):
    return math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)


def _indicator_factor(k: int, delta: float | None, lam: float,
                      quad_tol: float) -> float:
    """E[F_delta(sqrt(lam) W) h_k(W)]; the delta -> 0 limit is pointwise."""
    if k % 2 == 1:
        return 0.0
    if delta is None or delta == 0.0:
        return float(hermite(k, 0.0)) * _phi(0.0) / math.sqrt(lam)
    c = delta / math.sqrt(lam)
    val, _ = quad(lambda w: hermite(k, w) * _phi(w), -c, c,
                  epsabs=quad_tol, epsrel=0.0, limit=200)
    return val / (2.0 * delta)


def _abs_factor(k: int, lam: float, quad_tol: float) -> float:
    """E[|sqrt(lam) W| h_k(W)]."""
    if k % 2 == 1:
        return 0.0
    val, _ = quad(lambda w: w * hermite(k, w) * _phi(w), 0.0, 40.0,
                  epsabs=quad_tol, epsrel=0.0, limit=200)
    return 2.0 * val * math.sqrt(lam)


def gauss_expect_psi_H(alpha, delta: float | None = None,
                       lambdas=DEFAULT_LAMBDA_4, quad_tol: float = 1e-10) -> float:
    """E[Psi_delta(diag(lambda)^{1/2} W) H_alpha(W)] for standard Gaussian W.

    Psi pairs an indicator kernel on coordinates 1, 3 with |.| weights on
    coordinates 2, 4; the expectation factorizes into four 1-D integrals.
    ``delta=None`` takes the kernel's point-evaluation limit.  Odd
    multiplicity in any coordinate gives 0 exactly by parity.
    """
    lam = tuple(float(l) for l in lambdas)
    if len(lam) != 4 or any(l <= 0 for l in lam):
        raise ValueError("need four positive lambda entries")
    mult = multiplicities(alpha, 4)
    if any(m % 2 for m in mult):
        return 0.0
    out = 1.0
    for j, m in enumerate(mult):
        if j in (0, 2):
            out *= _indicator_factor(m, delta, lam[j], quad_tol)
        else:
            out *= _abs_factor(m, lam[j], quad_tol)
    return out


@dataclass(frozen=True)
class VnMcResult:
    value: float
    se: float
    trials: int
    hits_s: int
    hits_t: int
    joint_hits: int


def v_n_mc(n: int, s: float, t: float, dist: DistributionSpec, delta: float,
           trials: int, seed: int, chunk: int = 4096) -> VnMcResult:
    """Monte Carlo covariance of the two kernel-weighted derivatives,

        cov(|P'(s)| F_delta(P(s)), |P'(t)| F_delta(P(t))).

    Refuses when the expected number of |P| < delta hits cannot support an
    estimate (the indicator concentration makes smaller deltas hopeless).
    """
    expected_hits = trials * 2.0 * delta * _phi(0.0)
    if expected_hits < 10:
        need = int(math.ceil(10.0 / (2.0 * delta * _phi(0.0))))
        raise FeasibilityError(
            f"expected only {expected_hits:.2f} indicator hits; "
            f"need >= 10 (about {need} trials at this delta)")
    from trigroots.ensemble import _draw, _rng_for_trial

    Us, Ups = basis_matrices(n, s)
    Ut, Upt = basis_matrices(n, t)
    inv = 1.0 / math.sqrt(n)
    rng = _rng_for_trial(seed, 0)
    phis = np.empty(trials)
    phit = np.empty(trials)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        y = _draw(dist, rng, (hi - lo, n, 2))
        for (U, Up, out) in ((Us, Ups, phis), (Ut, Upt, phit)):
            p = (y[:, :, 0] @ U[:, 0] + y[:, :, 1] @ Up[:, 0]) * inv
            q = (y[:, :, 0] @ U[:, 1] + y[:, :, 1] @ Up[:, 1]) * inv
            out[lo:hi] = np.abs(q) * (np.abs(p) < delta) / (2.0 * delta)
    ms, mt = phis.mean(), phit.mean()
    cov = float(np.mean(phis * phit) - ms * mt)
    influence = (phis - ms) * (phit - mt) - cov
    se = float(np.std(influence) / math.sqrt(trials))
    return VnMcResult(value=cov, se=se, trials=trials,
                      hits_s=int(np.sum(phis > 0)), hits_t=int(np.sum(phit > 0)),
                      joint_hits=int(np.sum((phis > 0) & (phit > 0))))
