"""Non-resonance conditions on evaluation points and the good-pair region.

A point t resonates when some small integer multiple of t/(pi n) sits
within n^{-1+8 tau} of an integer; a pair (s, t) when some small integer
combination does.  ``build_D`` decides the pair condition uniformly over
every epsilon-interval pair by interval arithmetic: the affine image of a
box under (s, t) -> k s/(pi n) + l t/(pi n) is an interval, and the pair
is bad exactly when that interval approaches an integer.  The bad set is
stored per row as merged integer ranges, which keeps the n = 1e4 region
(2e9 pairs) countable without materializing pairs.  Each (k, l, integer)
band is evaluated only on the one run of rows it reaches, one cache-sized
block of rows at a time; ranges of two rows never touch, so each block
merges alone to exactly its rows of the whole region.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from trigroots.ensemble import check_finite, check_integer, check_positive

#: the default non-resonance exponent tau of the conditions, ``good_t``,
#: ``build_D`` and ``charprobe.decay_scan``
TAU = 0.05
#: conservative interval inflation against rounding in the box images
_FP_SLACK = 1e-12
#: rows added to each side of a band's row window against rounding
_ROW_SLACK = 2
#: rows ``build_D`` keys, sorts and merges at a time, so its temporaries stay in L2
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    witness: tuple[int, int, float] | None  # (k, l, distance)
    tau: float
    threshold: float
    l_max: int


def _params(n: int, tau: float, *points: float) -> tuple[float, int]:
    n = check_integer("n", n, 1)
    if not 0.0 < tau < 0.125:
        raise ValueError("tau must lie in (0, 1/8)")
    check_finite("evaluation points", points)
    return float(n) ** (-1.0 + 8.0 * tau), int(math.floor(float(n) ** tau))


def _nearest_int_distance(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.round(x))


def check_condition_t(n: int, t: float, tau: float = TAU) -> ConditionReport:
    """Single-point non-resonance: no l with 1 <= |l| <= n^tau puts
    l t/(pi n) within n^{-1+8 tau} of an integer."""
    threshold, l_max = _params(n, tau, t)
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


def check_condition_st(n: int, s: float, t: float, tau: float = TAU) -> ConditionReport:
    """Pair non-resonance over all (k, l) in the box, not both zero."""
    threshold, l_max = _params(n, tau, s, t)
    rs = s / (math.pi * n)
    rt = t / (math.pi * n)
    best = min(((k, l, float(_nearest_int_distance(k * rs + l * rt)))
                for k, l in _canonical_pairs(l_max)), key=lambda kld: kld[2])
    if best[2] <= threshold:
        return ConditionReport(False, best, tau, threshold, l_max)
    return ConditionReport(True, None, tau, threshold, l_max)


def good_t(n: int, tau: float = TAU, anchor: float = math.sqrt(2) - 1.0) -> float:
    """A window point passing the single-point condition, near anchor*pi*n."""
    for shift in np.linspace(0.0, 0.1, 41).tolist():
        t = (anchor + shift) * math.pi * n
        if check_condition_t(n, t, tau).satisfied:
            return t
    raise RuntimeError("no non-resonant point found")


def good_pair(n: int) -> tuple[float, float]:
    """A pair passing the pair condition (default tau), from three irrational anchors."""
    anchors = [(math.sqrt(2) - 1.0, math.sqrt(3) - 1.0),
               (math.sqrt(5) - 2.0, math.sqrt(7) - 2.0),
               (math.pi / 8.0, math.e / 4.0)]
    for a, b in anchors:
        s, t = a * math.pi * n, b * math.pi * n
        if check_condition_st(n, s, t).satisfied:
            return s, t
    raise RuntimeError("no non-resonant pair found")


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


def build_D(n: int, epsilon: float, tau: float = TAU) -> DRegion:
    """Decide the pair condition uniformly over every interval pair.

    Intervals are I_k = [k eps, (k+1) eps] inside (-n pi, n pi); rows are
    the t-interval index k, columns the s-interval index p > k.  A band
    (k1 > 0, l1, mm) has one p-range a row, not empty only on the run of
    rows where two affine conditions in k hold, and is computed there
    alone.  Each range end is one row-major integer key; the lo and hi
    keys are sorted apart and merged where a lo key passes the hi before.
    Bands, sort and merge run on blocks of ``_BLOCK_ROWS`` rows: no range
    crosses a row, so the blocks' merged ranges, joined in row order, are
    those of one merge over all rows, bit for bit.
    """
    check_positive("epsilon", epsilon)
    threshold, l_max = _params(n, tau)
    npi = math.pi * n
    k_min = int(math.ceil(-npi / epsilon - 1e-12))
    k_max = int(math.floor(npi / epsilon + 1e-12)) - 1
    m = k_max - k_min + 1
    if m < 2:
        empty = np.zeros(max(m, 0) + 1, dtype=np.int64)
        return DRegion(n, epsilon, tau, k_min, k_max, empty,
                       np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)

    thr = threshold + _FP_SLACK
    u = npi / epsilon
    shift = (m + 1).bit_length()
    # each band's run of rows [r0, r1], once; k1 = 0 bands mark whole rows
    bands = [(0, l1, 0, 0, m - 2) for l1 in range(1, l_max + 1)]  # l_max >= 1 as n >= 1
    for k1, l1 in _canonical_pairs(l_max)[l_max:]:
        span = abs(k1) + abs(l1) + 1
        for mm in range(-span, span + 1):
            # rows with p_hi >= k + 1 and p_lo <= k_max: both affine in k,
            # c k <= d, so one run of rows, widened by _ROW_SLACK rows
            r0, r1 = 0, m - 1
            for c, d in ((k1 + l1, u * (mm + thr) - min(l1, 0) - k1),
                         (-l1, k1 * (k_max + 1) + max(l1, 0) - u * (mm - thr))):
                if c > 0:
                    r1 = min(r1, math.floor(d / c) + _ROW_SLACK - k_min)
                elif c < 0:
                    r0 = max(r0, math.ceil(d / c) - _ROW_SLACK - k_min)
                elif d < -_ROW_SLACK:
                    r1 = -1
            if r0 <= r1:
                bands.append((k1, l1, mm, r0, r1))

    # row m - 1 (k = k_max) has no p > k; the k1 = 0 bands reach every block
    merged_keys, widths = [], []
    for b0 in range(0, m - 1, _BLOCK_ROWS):
        b1 = min(b0 + _BLOCK_ROWS, m - 1)
        ks = np.arange(k_min + b0, k_min + b1 + 1, dtype=np.int64)  # rows and k + 1
        # l1 * I_k is [l1 k eps, l1 (k+1) eps] for l1 >= 0 and the reverse
        # otherwise (rounding is monotone), read off one product row per
        # l1.  Ranges are kept as keys ((k - k_min) << shift) + (p - k_min):
        # the row stride 2**shift >= m + 2 exceeds every in-row offset + 1,
        # so ranges of two rows never touch
        ends = {l1: l1 * ks * epsilon for l1 in range(-l_max, l_max + 1)}
        row_key = ((ks[:-1] - k_min) << shift) - k_min
        all_lo, all_hi = [], []
        for k1, l1, mm, r0, r1 in bands:
            w = slice(max(r0, b0) - b0, min(r1 + 1, b1) - b0)
            if w.start >= w.stop:
                continue
            e1, e2 = ends[l1][:-1][w], ends[l1][1:][w]
            c_lo, c_hi = (e1, e2) if l1 >= 0 else (e2, e1)
            if k1 == 0:
                # resonance depends on the t-interval alone: an integer
                # lies within thr of l1 * I_k / (pi n)
                idx = np.nonzero(np.floor(c_hi / npi + thr).astype(np.int64)
                                 >= np.ceil(c_lo / npi - thr).astype(np.int64))[0]
                all_lo.append((row_key[w] + ks[1:][w])[idx])
                all_hi.append(row_key[w][idx] + k_max)
                continue
            # solve for p: k1*[p eps, (p+1) eps] + l1 * I_k near npi*mm;
            # canonical pairs have k1 > 0 here
            lo_p = (npi * (mm - thr) - c_hi) / epsilon
            hi_p = (npi * (mm + thr) - c_lo) / epsilon
            p_lo = np.maximum(np.ceil(lo_p / k1 - 1.0).astype(np.int64), ks[1:][w])
            p_hi = np.minimum(np.floor(hi_p / k1).astype(np.int64), k_max)
            idx = np.nonzero(p_lo <= p_hi)[0]
            all_lo.append((row_key[w] + p_lo)[idx])
            all_hi.append((row_key[w] + p_hi)[idx])
        # merge: with the lo keys and the hi keys sorted apart, the union
        # has a gap between sorted positions j - 1 and j exactly when lo[j]
        # > hi[j - 1] + 1 (the j smallest his all have their lo below
        # them); a stable sort takes the bands as the sorted runs they are
        key_lo = np.sort(np.concatenate(all_lo), kind="stable")
        key_hi = np.sort(np.concatenate(all_hi), kind="stable")
        starts = key_lo > np.r_[-2, key_hi[:-1]] + 1
        merged_keys.append(key_lo[starts])
        # j closes a merged range where j + 1 opens one; the last position
        # takes starts[0], which holds
        widths.append(key_hi[np.roll(starts, -1)] - merged_keys[-1])

    lo, hi = np.concatenate(merged_keys), np.concatenate(widths)  # decoded in place below
    del merged_keys, widths
    bad = int(np.sum(hi)) + lo.size
    offsets = np.concatenate(([0], np.cumsum(np.bincount(lo >> shift, minlength=m))))
    lo &= (1 << shift) - 1
    lo += k_min
    hi += lo
    return DRegion(n, epsilon, tau, k_min, k_max, offsets, lo, hi, bad)
