"""Polynomial evaluation: points, FFT grids, basis matrices, covariances.

The degree-n polynomial and its derivative are the coordinates of the
normalized walk S_n(t)/sqrt(n) built from the basis vectors

    u_i(t)  = (cos(it/n), -(i/n) sin(it/n)),
    u_i'(t) = (sin(it/n),  (i/n) cos(it/n)),

so P_n(t) = n^{-1/2} sum_i y_i1 u_i[0] + y_i2 u_i'[0] and P_n' likewise
from the second components.  On an equispaced grid the phases i*t_k/n are
equispaced in k, which turns grid evaluation into a single complex inverse
FFT (both P and P' at once via Hermitian packing).

The FFT's scale M/(2 sqrt n) is folded into the packed spectrum, so the
batch grids P and P' are views of the FFT output, with no full-grid copy.

A single-sample grid also carries the derivatives P^(0) .. P^(K+1) over one
full period, two orders to each FFT of the spectrum times (i j/n)^k.  Its
``eval_local`` method reads (P, P') at any t from the Taylor series at the
nearest node, in O(K) per point; ``eval_points`` costs O(n) per point and
stays the exact evaluator.  ``cell_expansions`` builds the same series at
the midpoints of arbitrary cells (the batch audit's), in O(n K) per cell
from one cos/sin table, and ``taylor_eval`` is the one Horner loop that
reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trigroots.ensemble import CoefficientSample

DEFAULT_OVERSAMPLE = 8

#: Taylor degree K of ``EvaluationGrid.eval_local``.  All frequencies j/n
#: are <= 1, so Bernstein's inequality gives sup|P^(k)| <= sup|P| and the
#: remainder of the degree-K series of P or P' at distance <= h/2 from a
#: node is <= sup|P| (h/2)^(K+1)/(K+1)!: 4e-16 sup|P| at the widest grid
#: spacing that ``grid_size`` admits, h/2 = pi/16.
TAYLOR_ORDER = 10


class GridError(ValueError):
    """Grid too coarse for the requested polynomial degree."""


@dataclass(frozen=True)
class WindowSpec:
    """Evaluation window: one full period (-n pi, n pi] or the half [0, n pi]."""

    kind: str = "full"

    def __post_init__(self):
        if self.kind not in ("full", "half"):
            raise ValueError(f"window kind must be 'full' or 'half', got {self.kind!r}")

    @property
    def circular(self) -> bool:
        return self.kind == "full"

    def start(self, n: int) -> float:
        return -n * math.pi if self.kind == "full" else 0.0

    def length(self, n: int) -> float:
        return 2.0 * n * math.pi if self.kind == "full" else n * math.pi

    def end(self, n: int) -> float:
        return self.start(n) + self.length(n)


FULL = WindowSpec("full")
HALF = WindowSpec("half")


@dataclass(frozen=True)
class EvaluationGrid:
    """P and P' sampled on the equispaced abscissae t_k = start + k*spacing.

    ``derivs[k, m]`` is P^(m)(t_k) for m = 0 .. TAYLOR_ORDER + 1 and k over
    one full period of nodes (M for the full window, 2M for the half).
    """

    window: WindowSpec
    n: int
    M: int
    P: np.ndarray
    Pprime: np.ndarray
    derivs: np.ndarray

    @property
    def spacing(self) -> float:
        return self.window.length(self.n) / self.M

    @property
    def start(self) -> float:
        return self.window.start(self.n)

    def t_values(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.M)

    def eval_local(self, ts) -> tuple:
        """(P, P') at arbitrary t by Horner on the Taylor series at the
        nearest node; nodes are taken modulo the period, so t outside the
        window is evaluated too.  Error bound: see ``TAYLOR_ORDER``."""
        ts = np.asarray(ts, dtype=float)
        h = self.spacing
        k = np.rint((ts - self.start) / h)
        x = ts - (self.start + k * h)
        return taylor_eval(self.derivs[k.astype(np.int64) % self.derivs.shape[0]], x)


def taylor_eval(d: np.ndarray, x) -> tuple:
    """(P, P') at offset x from the point where d[..., m] = P^(m), for
    m = 0 .. TAYLOR_ORDER + 1, by Horner on the degree-K Taylor series."""
    K = TAYLOR_ORDER
    x = np.asarray(x, dtype=float)
    f = x / np.arange(1.0, K + 1).reshape((K,) + (1,) * x.ndim)  # f[m] = x/(m+1)
    p, q = d[..., K], d[..., K + 1]
    for m in range(K - 1, -1, -1):
        p = d[..., m] + f[m] * p
        q = d[..., m + 1] + f[m] * q
    return p, q


def cell_expansions(ys: np.ndarray, t_left: np.ndarray, h: float) -> tuple:
    """Per cell k of width h from t_left[k], with the coefficients ys[k]
    (shape (B, n, 2)): P' at t_left[k] by direct row sums, and the Taylor
    coefficients P^(0) .. P^(TAYLOR_ORDER + 1) at the midpoint, for
    ``taylor_eval``.  One cos/sin table at t_left serves both: turned by
    the fixed phases i h/(2n) it becomes the midpoint table, and K + 2
    weighted sums give the coefficients.  Chunked in memory like
    ``eval_points``."""
    n = ys.shape[1]
    i = np.arange(1, n + 1, dtype=float)
    w = i / n
    inv = 1.0 / math.sqrt(n)
    orders = np.arange(TAYLOR_ORDER + 2)
    # the m-th derivative of cos, sin(i t/n) is (i/n)^m cos, sin(i t/n + m pi/2)
    weights = w[:, None] ** orders * np.array([1.0, 1.0, -1.0, -1.0])[orders % 4] * inv
    ch, sh = np.cos(i * (0.5 * h / n)), np.sin(i * (0.5 * h / n))
    slope = np.empty(len(t_left))
    coef = np.empty((len(t_left), orders.size))
    chunk = max(1, int(4e6 // n))
    for lo in range(0, len(t_left), chunk):
        sl = slice(lo, lo + chunk)
        th = np.multiply.outer(t_left[sl] / n, i)
        c, s = np.cos(th), np.sin(th)
        y1, y2 = ys[sl, :, 0], ys[sl, :, 1]
        slope[sl] = (np.sum(c * (w * y2), axis=1) - np.sum(s * (w * y1), axis=1)) * inv
        c, s = c * ch - s * sh, s * ch + c * sh
        coef[sl, 0::2] = (c * y1 + s * y2) @ weights[:, 0::2]
        coef[sl, 1::2] = (c * y2 - s * y1) @ weights[:, 1::2]
    return slope, coef


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric PSD average covariance of the normalized walk."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.shape != (self.dim, self.dim):
            raise ValueError("covariance shape mismatch")
        if not np.allclose(e, e.T, atol=1e-12):
            raise ValueError("covariance not symmetric")
        if np.linalg.eigvalsh(e).min() < -1e-10:
            raise ValueError("covariance not positive semidefinite")


def grid_size(n: int) -> int:
    """The root-capture bound: the fewest grid points per window at degree n."""
    return 2 * n * DEFAULT_OVERSAMPLE


def _period_size(n: int, window: WindowSpec, M: int) -> int:
    """Nodes in one full period of an M-point grid of the window; refuses M
    below ``grid_size(n)``."""
    if M < grid_size(n):
        raise GridError(f"M={M} below root-capture bound {grid_size(n)}")
    return M if window.kind == "full" else 2 * M


def eval_points(sample: CoefficientSample, ts: np.ndarray) -> tuple:
    """Vectorized (P, P') at arbitrary points; chunked in memory."""
    n = sample.n
    ts = np.asarray(ts, dtype=float)
    y1, y2 = sample.y[:, 0], sample.y[:, 1]
    w = np.arange(1, n + 1) / n
    inv = 1.0 / math.sqrt(n)
    P = np.empty_like(ts)
    Q = np.empty_like(ts)
    chunk = max(1, int(4e6 // max(n, 1)))
    for lo in range(0, ts.size, chunk):
        sl = slice(lo, min(lo + chunk, ts.size))
        th = np.multiply.outer(ts[sl] / n, np.arange(1, n + 1, dtype=float))
        c, s = np.cos(th), np.sin(th)
        P[sl] = (c @ y1 + s @ y2) * inv
        Q[sl] = (c @ (w * y2) - s @ (w * y1)) * inv
    return P, Q


def _packed_spectrum(y: np.ndarray, n: int, M: int, start_over_pi_n: float,
                     order: int = 0) -> np.ndarray:
    """Hermitian-packed spectrum whose length-M inverse FFT carries P^(order)
    in the real part and P^(order+1) in the imaginary part."""
    i = np.arange(1, n + 1)
    z = y[..., 0] - 1j * y[..., 1]  # Re(z e^{i theta}) = y1 cos + y2 sin
    # phase offset of the window start folded into the coefficients;
    # for the full window start_over_pi_n = -1 this is the exact (-1)^i.
    # So is the factor M/(2 sqrt n): it undoes the FFT's 1/M and the 2 of
    # each Hermitian pair and puts in P's 1/sqrt n (a power of two, so
    # exact, when n is a power of four).
    rot = np.exp(1j * math.pi * start_over_pi_n * i) * (M / (2.0 * math.sqrt(n)))
    base = z * rot
    d = 1j * (i / n)  # d/dt of the e^{i i t / n} term
    for _ in range(order):
        base = base * d
    dbase = base * d
    spec = np.zeros(y.shape[:-2] + (M,), dtype=complex)
    spec[..., i] = base + 1j * dbase
    spec[..., M - i] += np.conj(base) + 1j * np.conj(dbase)
    return spec


def eval_grid(sample: CoefficientSample, window: WindowSpec,
              M: int | None = None) -> EvaluationGrid:
    """P and P' on the window's equispaced grid, M defaulting to the
    root-capture bound, with the derivative stack over one full period.

    P and P' are those of ``eval_grid_batch`` on a batch of one; each pair
    of orders (m, m+1) takes one FFT of one period, Mfft points.
    """
    n = sample.n
    if M is None:
        M = grid_size(n)
    Mfft = _period_size(n, window, M)
    start_ratio = window.start(n) / (math.pi * n)
    orders = range(0, TAYLOR_ORDER + 2, 2)
    derivs = np.empty((Mfft, 2 * len(orders)))
    for m in orders:
        F = np.fft.ifft(_packed_spectrum(sample.y, n, Mfft, start_ratio, m))
        derivs[:, m] = F.real
        derivs[:, m + 1] = F.imag
    P, Q = derivs[:M, 0].copy(), derivs[:M, 1].copy()
    for a in (P, Q, derivs):
        a.setflags(write=False)
    return EvaluationGrid(window=window, n=n, M=M, P=P, Pprime=Q, derivs=derivs)


def eval_grid_batch(ys: np.ndarray, n: int, window: WindowSpec, M: int):
    """(P, P') grids for a batch of coefficient arrays, shape (B, n, 2), via
    one batched complex FFT (both at once by Hermitian packing).  P and P'
    are views of the real and imaginary parts of its output.

    Refuses M below ``grid_size(n)``: the sign-change root capture relies
    on several grid points per root of a degree-n trigonometric polynomial.
    The half window spans half a period, so it is evaluated on the 2M-point
    full grid and keeps the first M points.
    """
    Mfft = _period_size(n, window, M)
    start_ratio = window.start(n) / (math.pi * n)  # -1 (full) or 0 (half)
    F = np.fft.ifft(_packed_spectrum(ys, n, Mfft, start_ratio), axis=-1)
    return F.real[..., :M], F.imag[..., :M]


def basis_matrices(n: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """All u_i(t) stacked as rows (n, 2), and likewise u_i'."""
    i = np.arange(1, n + 1, dtype=float)
    th = i * t / n
    w = i / n
    c, s = np.cos(th), np.sin(th)
    U = np.column_stack([c, -w * s])
    Up = np.column_stack([s, w * c])
    return U, Up


def coefficient_matrices(n: int, t: float, s: float | None = None) -> np.ndarray:
    """C_n(k) stacked over k: shape (n, d, 2) with d = 2 (t only) or 4 (t, s).

    Column 1 is u_k (v_k), column 2 is u_k' (v_k'), so X_k = C_n(k) Y_k is
    the k-th increment of the walk.
    """
    U, Up = basis_matrices(n, t)
    C = np.stack([U, Up], axis=-1)  # (n, 2, 2)
    if s is None:
        return C
    Us, Ups = basis_matrices(n, s)
    Cs = np.stack([Us, Ups], axis=-1)
    return np.concatenate([C, Cs], axis=1)  # (n, 4, 2)


def covariance_V(n: int, t: float, s: float | None = None) -> CovarianceMatrix:
    """Average covariance (1/n) sum_k C_n(k) C_n(k)^T of the normalized walk."""
    C = coefficient_matrices(n, t, s)
    V = np.einsum("kil,kjl->ij", C, C) / n
    V = 0.5 * (V + V.T)
    return CovarianceMatrix(dim=V.shape[0], entries=V)
