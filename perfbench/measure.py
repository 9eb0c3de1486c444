"""Arithmetic the benchmark reports with: percentiles, span self times,
host-speed scale factors, and the computed FFT operation and byte counts.

Kept free of numpy and of the program under test so the self-tests in
``test_measure.py`` check it in isolation.
"""

from __future__ import annotations

import math
import statistics

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def nearest_rank(values, q: float) -> tuple[float, int]:
    """The nearest-rank q-quantile of ``values`` and the number of samples
    strictly beyond its rank.

    With N samples the rank is k = ceil(q * N) (1-based, at least 1); the
    value is the k-th smallest and N - k samples lie beyond it.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[k - 1], len(ordered) - k


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The q-quantile, refused unless ``min_beyond`` samples lie beyond it."""
    value, beyond = nearest_rank(values, q)
    if beyond < min_beyond:
        raise ValueError(f"p{100 * q:g} of {len(values)} samples has only "
                         f"{beyond} beyond it; need {min_beyond}")
    return value


def highest_tail(count: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest quantile q with at least ``min_beyond`` of ``count``
    samples beyond its nearest rank, or None when there are too few."""
    k = count - min_beyond
    if k < 1:
        return None
    return k / count


def median(values) -> float:
    return float(statistics.median(values))


def speed_scales(ref_times, nominal: float, window: int) -> list[float]:
    """Scale factor of each call from the reference times around it.

    ``ref_times`` holds one reference time before each of N calls and one
    after the last (N + 1 values).  Call i gets ``nominal`` over the median
    of the ``window`` reference times nearest it: the ``window // 2`` taken
    up to and including the one just before it and the rest from the one
    just after it on, shifted inward at either end of the run.  A call's
    time times its factor is its time on a host where the reference takes
    ``nominal``.
    """
    calls = len(ref_times) - 1
    if calls < 1:
        raise ValueError("need a reference time before and after each call")
    window = max(1, min(window, len(ref_times)))
    out = []
    for i in range(calls):
        lo = min(max(0, i + 1 - window // 2), len(ref_times) - window)
        out.append(nominal / median(ref_times[lo:lo + window]))
    return out


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part of its interval
    covered by its child spans (overlapping children counted once)."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def fft_flops(M: int) -> float:
    """Computed flop count of one complex length-M FFT: 5 M log2 M."""
    return 5.0 * M * math.log2(M)


def grid_bytes(M: int) -> int:
    """Computed bytes one trial's grid evaluation writes: the packed complex
    spectrum and the complex inverse-FFT output (16 bytes a point each),
    and the float P and P' grids (8 bytes a point each)."""
    return (16 + 16 + 8 + 8) * M
