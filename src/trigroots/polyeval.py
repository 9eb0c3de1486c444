"""Polynomial evaluation: points, FFT grids, basis matrices, covariances.

The degree-n polynomial and its derivative are the coordinates of the
normalized walk S_n(t)/sqrt(n) built from the basis vectors

    u_i(t)  = (cos(it/n), -(i/n) sin(it/n)),
    u_i'(t) = (sin(it/n),  (i/n) cos(it/n)),

so P_n(t) = n^{-1/2} sum_i y_i1 u_i[0] + y_i2 u_i'[0] and P_n' likewise
from the second components.  On an equispaced grid the phases i*t_k/n are
equispaced in k, which turns grid evaluation into a single complex inverse
FFT (both P and P' at once via Hermitian packing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trigroots.ensemble import CoefficientSample

DEFAULT_OVERSAMPLE = 8


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
    """P and P' sampled on the equispaced abscissae t_k = start + k*spacing."""

    window: WindowSpec
    n: int
    M: int
    P: np.ndarray
    Pprime: np.ndarray

    @property
    def spacing(self) -> float:
        return self.window.length(self.n) / self.M

    @property
    def start(self) -> float:
        return self.window.start(self.n)

    def t_values(self) -> np.ndarray:
        return self.start + self.spacing * np.arange(self.M)


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


def _packed_spectrum(y: np.ndarray, n: int, M: int, start_over_pi_n: float) -> np.ndarray:
    """Hermitian-packed spectrum whose length-M inverse FFT carries P in the
    real part and P' in the imaginary part (after scaling by M/(2 sqrt n))."""
    i = np.arange(1, n + 1)
    z = y[..., 0] - 1j * y[..., 1]  # Re(z e^{i theta}) = y1 cos + y2 sin
    # phase offset of the window start folded into the coefficients;
    # for the full window start_over_pi_n = -1 this is the exact (-1)^i
    rot = np.exp(1j * math.pi * start_over_pi_n * i)
    base = z * rot
    dbase = base * (1j * (i / n))  # d/dt of e^{i i t / n} term
    spec = np.zeros(y.shape[:-2] + (M,), dtype=complex)
    spec[..., i] = base + 1j * dbase
    spec[..., M - i] += np.conj(base) + 1j * np.conj(dbase)
    return spec


def eval_grid(sample: CoefficientSample, window: WindowSpec,
              M: int | None = None) -> EvaluationGrid:
    """P and P' on the window's equispaced grid: ``eval_grid_batch`` on a
    batch of one, M defaulting to the root-capture bound."""
    n = sample.n
    if M is None:
        M = grid_size(n)
    P, Q = eval_grid_batch(sample.y[None], n, window, M)
    P, Q = P[0], Q[0]
    P.setflags(write=False)
    Q.setflags(write=False)
    return EvaluationGrid(window=window, n=n, M=M, P=P, Pprime=Q)


def eval_grid_batch(ys: np.ndarray, n: int, window: WindowSpec, M: int):
    """(P, P') grids for a batch of coefficient arrays, shape (B, n, 2), via
    one batched complex FFT (both at once by Hermitian packing).

    Refuses M below ``grid_size(n)``: the sign-change root capture relies
    on several grid points per root of a degree-n trigonometric polynomial.
    The half window spans half a period, so it is evaluated on the 2M-point
    full grid and keeps the first M points.
    """
    if M < grid_size(n):
        raise GridError(f"M={M} below root-capture bound {grid_size(n)}")
    start_ratio = window.start(n) / (math.pi * n)  # -1 (full) or 0 (half)
    Mfft = M if window.kind == "full" else 2 * M
    spec = _packed_spectrum(ys, n, Mfft, start_ratio)
    F = np.fft.ifft(spec, axis=-1) * Mfft
    scale = 1.0 / (2.0 * math.sqrt(n))
    return F.real[..., :M] * scale, F.imag[..., :M] * scale


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
