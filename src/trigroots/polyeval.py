"""Polynomial evaluation: points, FFT grids, coefficient matrices, covariances.

The degree-n polynomial and its derivative are the coordinates of the
normalized walk S_n(t)/sqrt(n) built from the basis vectors

    u_i(t)  = (cos(it/n), -(i/n) sin(it/n)),
    u_i'(t) = (sin(it/n),  (i/n) cos(it/n)),

so P_n(t) = n^{-1/2} sum_i y_i1 u_i[0] + y_i2 u_i'[0] and P_n' likewise
from the second components.  ``coefficient_columns`` is the one basis
evaluator (contiguous columns of C_n(i) = (u_i, u_i'), each point's phases
from an angle-addition table).  Every grid spans one period, M points
t_k = -n pi + 2 pi n k/M; its phases i*t_k/n are equispaced in k, so a grid
is one complex inverse FFT (P and P' at once by Hermitian packing).

The FFT's scale M/(2 sqrt n) is folded into the packed spectrum, so a
batch grid is the FFT output (P real, P' imaginary), made in place in one
(B, M) array that ``count_batch`` reuses for every pass of a call.

A single-sample grid also carries the derivatives P^(0) .. P^(K+1) over one
full period, two orders to each spectrum times (i j/n)^k, one FFT call
for all.  Its ``eval_local`` method reads (P, P') at any t from the Taylor
series at the nearest node, in O(K) per point.  ``eval_points`` stays the
exact evaluator: all n terms, from a blocked phase table of 32 + n/32
complex exponentials per point and one matrix product.  ``cell_expansions``
builds the same series at the midpoints of arbitrary cells (the batch
audit's, rows gathered a chunk at a time), in O(n K) per cell from one
cos/sin table, and ``taylor_eval`` is the one Horner loop that reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from trigroots.ensemble import CoefficientSample

DEFAULT_OVERSAMPLE = 8

PASS_BYTES = 1 << 22  # complex spectrum of one ``count_batch`` pass, kept in cache

#: Taylor degree K of ``EvaluationGrid.eval_local``.  All frequencies j/n
#: are <= 1, so Bernstein's inequality gives sup|P^(k)| <= sup|P| and the
#: remainder of the degree-K series of P or P' at distance <= h/2 from a
#: node is <= sup|P| (h/2)^(K+1)/(K+1)!: 4e-16 sup|P| at the widest grid
#: spacing that ``grid_size`` admits, h/2 = pi/16.
TAYLOR_ORDER = 10


class GridError(ValueError):
    """Grid too coarse for the requested polynomial degree."""


#: the one window, one full period (-n pi, n pi]: a name kept for the third
#: parameter of ``rootcount.count_batch``, which the benchmark still passes
#: (ROADMAP item 6: its next change drops both)
FULL = "full"


@dataclass(frozen=True)
class EvaluationGrid:
    """P and P' sampled on the equispaced abscissae t_k = start + k*spacing
    of one period, start = -n pi.

    ``derivs[k, m]`` is P^(m)(t_k) for m = 0 .. TAYLOR_ORDER + 1 and k < M.
    """

    n: int
    M: int
    P: np.ndarray
    Pprime: np.ndarray
    derivs: np.ndarray

    @property
    def spacing(self) -> float:
        return grid_spacing(self.n, self.M)

    @property
    def start(self) -> float:
        return -self.n * math.pi

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
        return taylor_eval(self.derivs[k.astype(np.int64) % self.M], x)


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


def cell_expansions(ys: np.ndarray, rows: np.ndarray, t_left: np.ndarray, h: float) -> tuple:
    """Per cell k of width h from t_left[k], with the coefficients ys[rows[k]]
    (ys of shape (B, n, 2)): P' at t_left[k] by direct row sums, and the
    Taylor coefficients P^(0) .. P^(TAYLOR_ORDER + 1) at the midpoint, for
    ``taylor_eval``.  One cos/sin table at t_left serves both: turned by
    the fixed phases i h/(2n) it becomes the midpoint table, and K + 2
    weighted sums give the coefficients.  Cells go in chunks of about
    PASS_BYTES of tables, each gathering its own rows of ys."""
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
    chunk = max(1, PASS_BYTES // (64 * n))  # ~8 live (cells, n) float tables
    for lo in range(0, len(t_left), chunk):
        sl = slice(lo, lo + chunk)
        th = np.multiply.outer(t_left[sl] / n, i)
        c, s = np.cos(th), np.sin(th)
        y1, y2 = np.moveaxis(ys[rows[sl]], -1, 0)
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
    """The root-capture bound: the fewest grid points per period at degree n."""
    return 2 * n * DEFAULT_OVERSAMPLE


def grid_spacing(n: int, M: int) -> float:
    """Spacing of an M-point grid of one period."""
    return 2.0 * n * math.pi / M


def pass_rows(n: int, M: int) -> int:
    """Rows of one batch pass: PASS_BYTES of spectrum, at least one row."""
    return max(1, PASS_BYTES // (16 * check_grid(n, M)))


def check_grid(n: int, M: int) -> int:
    """M, refused unless an integer of at least ``grid_size(n)``."""
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)):
        raise ValueError(f"M must be an integer, got {M!r}")
    if M < grid_size(n):
        raise GridError(f"M={M} below root-capture bound {grid_size(n)}")
    return M


def _cis(theta: np.ndarray) -> np.ndarray:
    """e^{i theta} by one cos and one sin pass (faster than a complex exp)."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def eval_points(sample: CoefficientSample, ts: np.ndarray) -> tuple:
    """Vectorized (P, P') at arbitrary points, in chunks.  In blocks
    of b = min(32, n), frequency j = 1 + b a + k has the phase
    e^{i t b a/n} e^{i t (k+1)/n}: b + n/b complex exponentials a point, and
    one (R, b) @ (b, 2A) product over the A blocks sums P and P'."""
    n = sample.n
    ts = np.asarray(ts, dtype=float)
    b = min(32, n)
    A = -(-n // b)
    z = np.zeros((2, A * b), dtype=complex)  # Re z e^{ith} = y1 cos + y2 sin, -Im = y2 cos - y1 sin
    z[0, :n] = sample.y[:, 0] - 1j * sample.y[:, 1]
    z[1, :n] = z[0, :n] * (np.arange(1, n + 1) / n)
    Z = z.reshape(2, A, b).transpose(2, 0, 1).reshape(b, 2 * A)  # Z[k, a] = z_{1 + b a + k}
    inv = 1.0 / math.sqrt(n)
    P, Q = np.empty_like(ts), np.empty_like(ts)
    chunk = max(1, 65536 // (b + 2 * A))  # a chunk's tables stay in cache
    for lo in range(0, ts.size, chunk):
        tn = ts[lo:lo + chunk, None] / n
        sums = (_cis(tn * np.arange(1, b + 1)) @ Z).reshape(-1, 2, A)
        sums = (sums * _cis(tn * (b * np.arange(A)))[:, None]).sum(axis=2)
        P[lo:lo + chunk] = sums[:, 0].real * inv
        Q[lo:lo + chunk] = -sums[:, 1].imag * inv
    return P, Q


def _packed_ifft(y: np.ndarray, n: int, M: int, pairs: int = 1,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Length-M inverse FFTs of the Hermitian-packed spectra, shape (pairs,
    ..., M): pair k has P^(2k) in the real part and P^(2k+1) in the
    imaginary part.  The bands are filled, every other bin zeroed, and all
    transformed by one FFT call in place (in ``out``, reshaped, if given)."""
    i = np.arange(1, n + 1)
    z = y[..., 0] - 1j * y[..., 1]  # Re(z e^{i theta}) = y1 cos + y2 sin
    # phase offset of the window start -n pi folded into the coefficients:
    # its real part is (-1)^i, but its imaginary part is sin of the rounded
    # pi*i, about 1.2e-16*i, not 0.
    # The factor M/(2 sqrt n) is folded in too: it undoes the FFT's 1/M and
    # the 2 of each Hermitian pair and puts in P's 1/sqrt n (a power of
    # two, so exact, when n is a power of four).
    rot = np.exp(-1j * math.pi * i) * (M / (2.0 * math.sqrt(n)))
    d = 1j * (i / n)  # d/dt of the e^{i i t / n} term
    powers = [z * rot]  # the spectra of P^(0), P^(1), .., one factor d at a time
    for _ in range(2 * pairs - 1):
        powers.append(powers[-1] * d)
    base, dbase = np.stack(powers[0::2]), np.stack(powers[1::2])
    shape = base.shape[:-1] + (M,)
    spec = np.empty(shape, dtype=complex) if out is None else out.reshape(shape)
    spec[..., 0] = spec[..., n + 1:] = 0.0
    spec[..., 1:n + 1] = base + 1j * dbase
    # bins M - 1 .. M - n, added to the zeros: a -0.0 part becomes +0.0
    # there, as with the fancy-index fill, so the spectrum is bit-identical
    spec[..., M - n:][..., ::-1] += np.conj(base) + 1j * np.conj(dbase)
    return np.fft.ifft(spec, axis=-1, out=spec)


def eval_grid(sample: CoefficientSample, M: int | None = None) -> EvaluationGrid:
    """P and P' on the M-point grid of one period, M defaulting to the
    root-capture bound, with the derivative stack.

    P and P' are those of ``eval_grid_batch`` on a batch of one; the pairs
    of orders (m, m+1) share one FFT call.
    """
    n = sample.n
    M = check_grid(n, grid_size(n) if M is None else M)
    F = _packed_ifft(sample.y, n, M, (TAYLOR_ORDER + 2) // 2)
    derivs = np.ascontiguousarray(F.T).view(float)  # pair k: columns 2k, 2k + 1
    P, Q = derivs[:, 0].copy(), derivs[:, 1].copy()
    for a in (P, Q, derivs):
        a.setflags(write=False)
    return EvaluationGrid(n=n, M=M, P=P, Pprime=Q, derivs=derivs)


def eval_grid_batch(ys: np.ndarray, n: int, M: int, out: np.ndarray | None = None):
    """(P, P') grids for a batch of coefficient arrays, shape (B, n, 2), via
    one batched complex FFT (both at once by Hermitian packing): its (B, M)
    output over one period from -n pi, P in the real part and P' in the
    imaginary.  ``out``, a C-contiguous (B, M) complex array, is reused for
    the spectrum and the output.

    Refuses M below ``grid_size(n)``: the sign-change root capture relies
    on several grid points per root of a degree-n trigonometric polynomial.
    """
    return _packed_ifft(ys, n, check_grid(n, M), out=out)[0]


def coefficient_columns(n: int, t: float, s: float | None = None, only=None) -> list:
    """The d = 2 (t only) or 4 (t, s) rows of C_n(k), k = 1 .. n, as contiguous
    length-n (column 1, column 2) pairs: (cos, sin) and (-w sin, w cos) of
    kp/n, w = k/n, for p = t, then s; rows not in ``only`` (0-based), if given,
    are None.  Refuses an n that is not an integer >= 1 and a non-finite t or
    s.  A point's phases are one angle-addition table: k = b a + j,
    b = isqrt(n), so cos and sin run on b + n/b angles."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    pts = (t,) if s is None else (t, s)
    if not all(math.isfinite(p) for p in pts):
        raise ValueError(f"evaluation points must be finite, got {pts}")
    need = set(range(2 * len(pts)) if only is None else only)
    b, w, rows = math.isqrt(n), np.arange(1, n + 1) / n if need & {1, 3} else None, []
    for i, p in enumerate(pts):
        big = _cis(p / n * (b * np.arange(-(-n // b))))[:, None]  # e^{i b a p/n}
        small = _cis(p / n * np.arange(1, b + 1))  # e^{i j p/n}
        c = (big.real * small.real - big.imag * small.imag).reshape(-1)[:n]
        sn = (big.imag * small.real + big.real * small.imag).reshape(-1)[:n]
        rows += [(c, sn) if 2 * i in need else None,
                 (-w * sn, w * c) if 2 * i + 1 in need else None]
    return rows


def coefficient_matrices(n: int, t: float, s: float | None = None) -> np.ndarray:
    """C_n(k) stacked over k, shape (n, d, 2), from ``coefficient_columns``: column 1
    is u_k (v_k in rows 2, 3), column 2 u_k' (v_k'); X_k = C_n(k) Y_k is the walk's step."""
    return np.stack([np.stack(row, axis=-1) for row in coefficient_columns(n, t, s)], axis=1)


def covariance_V(n: int, t: float, s: float | None = None) -> CovarianceMatrix:
    """Average covariance (1/n) sum_k C_n(k) C_n(k)^T of the normalized walk."""
    C = coefficient_matrices(n, t, s)
    V = np.einsum("kil,kjl->ij", C, C) / n
    V = 0.5 * (V + V.T)
    return CovarianceMatrix(dim=V.shape[0], entries=V)
