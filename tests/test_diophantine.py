import math
import tracemalloc

import numpy as np
import pytest

from oracles import build_D_sweep
from trigroots import diophantine
from trigroots.diophantine import (
    build_D,
    check_condition_st,
    check_condition_t,
    good_pair,
    good_t,
)


def _brute_force_point(n, t, tau):
    thr = n ** (-1 + 8 * tau)
    l_max = int(math.floor(n**tau))
    for l in range(1, l_max + 1):
        x = l * t / (math.pi * n)
        if abs(x - round(x)) <= thr:
            return False
    return True


def _brute_force_pair(n, s, t, tau):
    thr = n ** (-1 + 8 * tau)
    l_max = int(math.floor(n**tau))
    for k in range(-l_max, l_max + 1):
        for l in range(-l_max, l_max + 1):
            if k == 0 and l == 0:
                continue
            x = (k * s + l * t) / (math.pi * n)
            if abs(x - round(x)) <= thr:
                return False
    return True


class TestConditionT:
    def test_zero_fails_with_unit_witness(self):
        r = check_condition_t(1000, 0.0, 0.05)
        assert not r.satisfied
        assert r.witness[1] == 1 and r.witness[2] == 0.0

    def test_half_multiple_fails_once_box_reaches_two(self):
        # t = pi n / 2 resonates through l = 2, which enters the scan at
        # tau large enough that floor(n^tau) >= 2
        n = 1000
        t = math.pi * n / 2
        r = check_condition_t(n, t, tau=0.12)
        assert r.l_max >= 2
        assert not r.satisfied
        assert r.witness[1] == 2 and r.witness[2] == pytest.approx(0.0, abs=1e-12)

    def test_golden_ratio_passes(self):
        n = 1000
        t = math.pi * n * (math.sqrt(5) - 1) / 2
        r = check_condition_t(n, t, 0.05)
        assert r.satisfied
        assert r.l_max == 1
        assert _brute_force_point(n, t, 0.05)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 3000))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            tau = float(rng.uniform(0.02, 0.12))
            assert check_condition_t(n, t, tau).satisfied == \
                _brute_force_point(n, t, tau)

    def test_monotone_in_tau(self, rng):
        # larger tau enlarges both the box and the threshold
        for _ in range(100):
            n = int(rng.integers(10, 2000))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            r1 = check_condition_t(n, t, 0.03)
            r2 = check_condition_t(n, t, 0.10)
            if not r1.satisfied:
                assert not r2.satisfied

    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            check_condition_t(100, 1.0, 0.2)

    # unrefused, n = 100.5 would build a region for a degree that does not
    # exist and True would run as n = 1
    @pytest.mark.parametrize("n", [100.5, 2.0, np.float64(100.0), True],
                             ids=["fraction", "float", "np-float", "bool"])
    @pytest.mark.parametrize("call", [
        lambda n: check_condition_t(n, 0.3),
        lambda n: check_condition_st(n, 0.3, 0.7),
        lambda n: build_D(n, 1.0),
    ], ids=["check_condition_t", "check_condition_st", "build_D"])
    def test_refuses_n_not_an_integer(self, call, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n}"):
            call(n)
        call(np.int64(100))


class TestConditionSt:
    def test_equal_points_fail(self):
        r = check_condition_st(1000, 777.7, 777.7, 0.05)
        assert not r.satisfied
        assert (r.witness[0], r.witness[1]) in ((1, -1), (-1, 1))
        assert r.witness[2] == pytest.approx(0.0, abs=1e-12)

    def test_good_pair_passes(self):
        n = 1000
        s = math.pi * n * (math.sqrt(2) - 1)
        t = math.pi * n * (math.sqrt(3) - 1)
        assert check_condition_st(n, s, t, 0.05).satisfied
        assert _brute_force_pair(n, s, t, 0.05)

    @pytest.mark.parametrize("n", [200, 1000, 100000])
    def test_point_search_passes_brute_force(self, n):
        t = good_t(n)
        s, t2 = good_pair(n)
        assert {type(t), type(s), type(t2)} == {float}
        assert _brute_force_point(n, t, 0.05)
        assert _brute_force_pair(n, s, t2, 0.05)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(10, 2000))
            s = float(rng.uniform(-n * math.pi, n * math.pi))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            assert check_condition_st(n, s, t, 0.07).satisfied == \
                _brute_force_pair(n, s, t, 0.07)

    def test_pair_implies_points(self, rng):
        found = 0
        for _ in range(300):
            n = int(rng.integers(50, 2000))
            s = float(rng.uniform(-n * math.pi, n * math.pi))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            if check_condition_st(n, s, t, 0.05).satisfied:
                found += 1
                assert check_condition_t(n, s, 0.05).satisfied
                assert check_condition_t(n, t, 0.05).satisfied
        assert found > 0

    def test_symmetric_in_arguments(self, rng):
        for _ in range(30):
            n = int(rng.integers(10, 500))
            s = float(rng.uniform(-n * math.pi, n * math.pi))
            t = float(rng.uniform(-n * math.pi, n * math.pi))
            assert check_condition_st(n, s, t).satisfied == \
                check_condition_st(n, t, s).satisfied


def _brute_force_region(n, epsilon, tau):
    """Independent slow decision of every interval pair via the exact
    range of the affine map on box corners."""
    thr = n ** (-1 + 8 * tau)
    l_max = int(math.floor(n**tau))
    npi = math.pi * n
    k_min = math.ceil(-npi / epsilon - 1e-12)
    k_max = math.floor(npi / epsilon + 1e-12) - 1
    bad = set()
    for k in range(k_min, k_max + 1):
        for p in range(k + 1, k_max + 1):
            s_box = (p * epsilon, (p + 1) * epsilon)
            t_box = (k * epsilon, (k + 1) * epsilon)
            for k1 in range(-l_max, l_max + 1):
                for l1 in range(-l_max, l_max + 1):
                    if (k1, l1) == (0, 0):
                        continue
                    corners = [k1 * s + l1 * t
                               for s in s_box for t in t_box]
                    lo, hi = min(corners) / npi, max(corners) / npi
                    if math.floor(hi + thr) >= math.ceil(lo - thr):
                        bad.add((k, p))
                        break
                else:
                    continue
                break
    return k_min, k_max, bad


# l_max 1 and 2, m < 2, and bad counts above 2**32
_SWEEP_CASES = [
    (20, 2, .05), (100, 1, .05), (1000, 1, .05), (10**4, 1, .05),
    (10**4, .3, .05), (100, 1, .1), (1000, .5, .12), (5000, 3, .1),
    (50, 7, .02), (10, 1000, .05), (300, .7, .11), (2**20, 100, .05),
    (123456, 5, .09)]


def _assert_matches_sweep(D, n, eps, tau):
    ref = build_D_sweep(n, eps, tau)
    assert (D.k_min, D.k_max, D.bad_pairs) == (ref.k_min, ref.k_max, ref.bad_pairs)
    assert type(D.bad_pairs) is int
    for name in ("row_offsets", "range_lo", "range_hi"):
        got, want = getattr(D, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestBuildD:
    # (4100, 60, 0.085): l_max = 2, so bands with |l1| = 2 and k1 = 2 run,
    # on 428 intervals with a non-empty good set
    @pytest.mark.parametrize("n, eps, tau", [(20, 2.0, 0.05), (4100, 60.0, 0.085)])
    def test_matches_brute_force_small(self, n, eps, tau):
        D = build_D(n, eps, tau)
        k_min, k_max, bad = _brute_force_region(n, eps, tau)
        assert (D.k_min, D.k_max) == (k_min, k_max)
        assert D.bad_pairs == len(bad)
        for k in range(k_min, k_max + 1):
            for p in range(k + 1, k_max + 1):
                assert D.is_good(k, p) == ((k, p) not in bad), (k, p)

    @pytest.mark.parametrize("n, eps, tau", _SWEEP_CASES)
    def test_matches_full_row_sweep(self, n, eps, tau):
        _assert_matches_sweep(build_D(n, eps, tau), n, eps, tau)

    # blocks of 1 row, of 7 (not a divisor of any m here) and of 64: a
    # block edge that drops, repeats or splits a row changes the arrays
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_row_blocks_match_full_row_sweep(self, monkeypatch, rows):
        monkeypatch.setattr(diophantine, "_BLOCK_ROWS", rows)
        cases = [c for c in _SWEEP_CASES if 2 * math.pi * c[0] / c[1] <= 3000]
        assert len(cases) == 6
        for n, eps, tau in cases:
            _assert_matches_sweep(build_D(n, eps, tau), n, eps, tau)

    def test_peak_memory_at_n_1e4(self):
        # one key sort and merge over all 62,832 rows peaks at 21.8 MiB
        build_D(10**4, 1.0, 0.05)
        tracemalloc.start()
        try:
            build_D(10**4, 1.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, peak / 2**20

    def test_adjacent_pairs_excluded(self):
        D = build_D(100, 1.0, 0.05)
        for k in range(D.k_min, D.k_max):
            assert not D.is_good(k, k + 1)

    def test_sampled_good_pairs_pass_condition(self, rng):
        n = 1000
        D = build_D(n, 1.0, 0.05)
        pairs = []
        while len(pairs) < 100:
            k = int(rng.integers(D.k_min, D.k_max))
            p = int(rng.integers(k + 1, D.k_max + 1))
            if D.is_good(k, p):
                pairs.append((k, p))
        for k, p in pairs:
            # interval I_k = [k eps, (k+1) eps]
            for _ in range(10):
                s = float(rng.uniform(p * D.epsilon, (p + 1) * D.epsilon))
                t = float(rng.uniform(k * D.epsilon, (k + 1) * D.epsilon))
                assert check_condition_st(n, s, t, 0.05).satisfied

    def test_fraction_decreases_with_n(self):
        f = [build_D(n, 1.0, 0.05).bad_fraction for n in (100, 1000)]
        assert f[1] < f[0]

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_epsilon_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError,
                           match=f"epsilon must be finite and > 0, got {eps}"):
            build_D(100, eps, 0.05)

    def test_oversized_epsilon_no_crash(self):
        D = build_D(10, 1000.0, 0.05)
        assert D.total_pairs == 0
        assert D.bad_fraction == 0.0

