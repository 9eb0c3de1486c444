"""Non-resonance conditions on evaluation points and the good-pair region.

A point t resonates when some small integer multiple of t/(pi n) sits
within n^{-1+8 tau} of an integer; a pair (s, t) when some small integer
combination does.  ``build_D`` decides the pair condition uniformly over
every epsilon-interval pair by interval arithmetic: the affine image of a
box under (s, t) -> k s/(pi n) + l t/(pi n) is an interval, and the pair
is bad exactly when that interval approaches an integer.  The bad set is
stored per row as merged integer ranges, which keeps the n = 1e4 sweep
(2e9 pairs) countable without materializing pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

#: conservative interval inflation against rounding in the box images
_FP_SLACK = 1e-12


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    witness: tuple[int, int, float] | None  # (k, l, distance)
    tau: float
    threshold: float
    l_max: int
    vacuous: bool = False

    def __bool__(self):
        return self.satisfied


def _params(n: int, tau: float) -> tuple[float, int]:
    if not 0.0 < tau < 0.125:
        raise ValueError("tau must lie in (0, 1/8)")
    return float(n) ** (-1.0 + 8.0 * tau), int(math.floor(float(n) ** tau))


def _nearest_int_distance(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.round(x))


def check_condition_t(n: int, t: float, tau: float = 0.05) -> ConditionReport:
    """Single-point non-resonance: no l with 1 <= |l| <= n^tau puts
    l t/(pi n) within n^{-1+8 tau} of an integer."""
    threshold, l_max = _params(n, tau)
    if l_max < 1:
        return ConditionReport(True, None, tau, threshold, l_max, vacuous=True)
    ratio = t / (math.pi * n)
    ls = np.arange(1, l_max + 1)
    dists = _nearest_int_distance(ls * ratio)
    worst = int(np.argmin(dists))
    if dists[worst] <= threshold:
        return ConditionReport(False, (0, int(ls[worst]), float(dists[worst])),
                               tau, threshold, l_max)
    return ConditionReport(True, None, tau, threshold, l_max)


def _canonical_pairs(l_max: int):
    """Half of the (k, l) box modulo global sign, (0,0) excluded."""
    out = []
    for k in range(0, l_max + 1):
        for l in range(-l_max, l_max + 1):
            if k == 0 and l <= 0:
                continue
            out.append((k, l))
    return out


def check_condition_st(n: int, s: float, t: float, tau: float = 0.05) -> ConditionReport:
    """Pair non-resonance over all (k, l) in the box, not both zero."""
    threshold, l_max = _params(n, tau)
    if l_max < 1:
        return ConditionReport(True, None, tau, threshold, l_max, vacuous=True)
    rs = s / (math.pi * n)
    rt = t / (math.pi * n)
    best = None
    for k, l in _canonical_pairs(l_max):
        d = float(_nearest_int_distance(k * rs + l * rt))
        if best is None or d < best[2]:
            best = (k, l, d)
    if best is not None and best[2] <= threshold:
        return ConditionReport(False, best, tau, threshold, l_max)
    return ConditionReport(True, None, tau, threshold, l_max)


@dataclass(frozen=True)
class DRegion:
    """The good-pair region: ordered interval pairs (k, p), k < p, on which
    the pair condition holds uniformly.  Bad pairs are stored as per-row
    merged p-ranges."""

    n: int
    epsilon: float
    tau: float
    k_min: int
    k_max: int
    row_offsets: np.ndarray  # CSR offsets into the range arrays, per row
    range_lo: np.ndarray
    range_hi: np.ndarray
    bad_pairs: int

    @property
    def interval_count(self) -> int:
        return max(0, self.k_max - self.k_min + 1)

    @property
    def total_pairs(self) -> int:
        m = self.interval_count
        return m * (m - 1) // 2

    @property
    def bad_fraction(self) -> float:
        return self.bad_pairs / self.total_pairs if self.total_pairs else 0.0

    def _row_ranges(self, k: int):
        r = k - self.k_min
        lo, hi = self.row_offsets[r], self.row_offsets[r + 1]
        return self.range_lo[lo:hi], self.range_hi[lo:hi]

    def is_good(self, k: int, p: int) -> bool:
        if not (self.k_min <= k < p <= self.k_max):
            raise ValueError("pair outside the interval index range")
        los, his = self._row_ranges(k)
        j = bisect_right(los, p) - 1
        return not (j >= 0 and p <= his[j])


def build_D(n: int, epsilon: float, tau: float = 0.05) -> DRegion:
    """Decide the pair condition uniformly over every interval pair.

    Intervals are I_k = [k eps, (k+1) eps] inside (-n pi, n pi); rows are
    the t-interval index k, columns the s-interval index p > k.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    threshold, l_max = _params(n, tau)
    npi = math.pi * n
    k_min = int(math.ceil(-npi / epsilon - 1e-12))
    k_max = int(math.floor(npi / epsilon + 1e-12)) - 1
    m = k_max - k_min + 1
    if m < 2:
        empty = np.zeros(max(m, 0) + 1, dtype=np.int64)
        return DRegion(n, epsilon, tau, k_min, k_max, empty,
                       np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)

    rows_k = np.arange(k_min, k_max + 1, dtype=np.int64)
    thr = threshold + _FP_SLACK
    all_rows, all_lo, all_hi = [], [], []

    pairs = _canonical_pairs(l_max) if l_max >= 1 else []
    for k1, l1 in pairs:
        # t-interval contribution l1 * I_k, as [c_lo, c_hi] per row
        e1 = l1 * rows_k * epsilon
        e2 = l1 * (rows_k + 1) * epsilon
        c_lo = np.minimum(e1, e2)
        c_hi = np.maximum(e1, e2)
        if k1 == 0:
            # resonance depends on the t-interval alone: full bad rows
            floor_hi = np.floor(c_hi / npi + thr).astype(np.int64)
            ceil_lo = np.ceil(c_lo / npi - thr).astype(np.int64)
            bad_rows = floor_hi >= ceil_lo  # an integer lies within thr
            idx = np.nonzero(bad_rows & (rows_k + 1 <= k_max))[0]
            if idx.size:
                all_rows.append(rows_k[idx])
                all_lo.append(rows_k[idx] + 1)
                all_hi.append(np.full(idx.size, k_max, dtype=np.int64))
            continue
        span = abs(k1) + abs(l1) + 1
        for mm in range(-span, span + 1):
            # solve for p: k1*[p eps, (p+1) eps] + [c_lo, c_hi] near npi*mm
            lo_p = (npi * (mm - thr) - c_hi) / epsilon
            hi_p = (npi * (mm + thr) - c_lo) / epsilon
            if k1 > 0:
                p_lo = np.ceil(lo_p / k1 - 1.0).astype(np.int64)
                p_hi = np.floor(hi_p / k1).astype(np.int64)
            else:  # canonical pairs have k1 >= 0; kept for clarity
                continue
            p_lo = np.maximum(p_lo, rows_k + 1)
            p_hi = np.minimum(p_hi, k_max)
            idx = np.nonzero(p_lo <= p_hi)[0]
            if idx.size:
                all_rows.append(rows_k[idx])
                all_lo.append(p_lo[idx])
                all_hi.append(p_hi[idx])

    if not all_rows:
        offsets = np.zeros(m + 1, dtype=np.int64)
        return DRegion(n, epsilon, tau, k_min, k_max, offsets,
                       np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)

    rows = np.concatenate(all_rows)
    los = np.concatenate(all_lo)
    his = np.concatenate(all_hi)
    order = np.lexsort((los, rows))
    rows, los, his = rows[order], los[order], his[order]

    # merge overlapping ranges within each row
    merged_rows, merged_lo, merged_hi = _merge_sorted_ranges(rows, los, his)
    bad = int(np.sum(merged_hi - merged_lo + 1))

    row_idx = (merged_rows - k_min).astype(np.int64)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.add.at(offsets, row_idx + 1, 1)
    offsets = np.cumsum(offsets)
    return DRegion(n, epsilon, tau, k_min, k_max, offsets,
                   merged_lo, merged_hi, bad)


def _merge_sorted_ranges(rows, los, his):
    """Merge [lo, hi] integer ranges already sorted by (row, lo)."""
    if rows.size == 0:
        return rows, los, his
    big = (his.max() - los.min() + 2)
    keyed = his + rows * big
    run = np.maximum.accumulate(keyed) - rows * big  # segmented running max
    new_row = np.r_[True, rows[1:] != rows[:-1]]
    prev = np.r_[-np.inf, run[:-1]]
    prev = np.where(new_row, -np.inf, prev)
    starts = new_row | (los > prev + 1)
    out_rows = rows[starts]
    out_lo = los[starts]
    # within a merged segment the union is contiguous, so hi = max over it
    out_hi = np.maximum.reduceat(his, np.nonzero(starts)[0])
    return out_rows, out_lo, out_hi
