"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_measure.py

Needs neither numpy nor the program under test.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    assert measure.nearest_rank(values, 0.5) == (50, 50)
    assert measure.nearest_rank(values, 0.9) == (90, 10)
    assert measure.nearest_rank(values, 1.0) == (100, 0)


def test_nearest_rank_is_robust_to_float_products():
    # 0.9 * 110 is 99.00000000000001 in binary; the rank must still be 99
    assert measure.nearest_rank(list(range(110)), 0.9) == (98, 11)


def test_tail_percentile_needs_ten_beyond():
    assert measure.tail_percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(99)), 0.9)  # only 9 beyond p90
    with pytest.raises(ValueError):
        measure.nearest_rank([], 0.5)


def test_highest_tail():
    assert measure.highest_tail(100) == 0.9
    assert measure.highest_tail(200) == 0.95
    assert measure.highest_tail(11) == 1 / 11
    assert measure.highest_tail(10) is None
    # the percentile it names leaves exactly ten samples beyond
    for count in (11, 57, 100, 1000):
        _, beyond = measure.nearest_rank(list(range(count)), measure.highest_tail(count))
        assert beyond == 10


def test_speed_scales_use_the_nearest_reference_times():
    refs = [1.0, 1.0, 2.0, 2.0, 2.0, 4.0]  # before each of 5 calls, and after
    # window 2: the reference just before a call and the one just after it
    assert measure.speed_scales(refs, 2.0, 2) == [2.0, 4 / 3, 1.0, 1.0, 2 / 3]
    # window 4, shifted inward at both ends of the run
    assert measure.speed_scales(refs, 3.0, 4) == [2.0, 2.0, 1.5, 1.5, 1.5]
    # a window wider than the run takes every reference time
    assert measure.speed_scales(refs, 2.0, 50) == [1.0] * 5
    with pytest.raises(ValueError):
        measure.speed_scales([1.0], 1.0, 4)


def _span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 5.0, 6.0),
             _span(3, 1, 1.5, 2.0)]
    st = measure.self_times(spans)
    assert st[0] == pytest.approx(7.0)
    assert st[1] == pytest.approx(1.5)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(0.5)


def test_self_time_counts_overlap_once_and_clips():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 4.0, 8.0),
             _span(3, 0, 9.0, 12.0)]
    # children cover [2, 8] and [9, 10] inside the parent
    assert measure.self_times(spans)[0] == pytest.approx(3.0)


def test_fft_flops_and_bytes():
    assert measure.fft_flops(1024) == 5 * 1024 * 10
    assert measure.fft_flops(16 * 64) == pytest.approx(5 * 1024 * math.log2(1024))
    assert measure.grid_bytes(1024) == 48 * 1024
