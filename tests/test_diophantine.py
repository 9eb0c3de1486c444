import math

import numpy as np
import pytest

from trigroots.diophantine import (
    build_D,
    check_condition_st,
    check_condition_t,
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


class TestBuildD:
    def test_matches_brute_force_small(self):
        n, eps, tau = 20, 2.0, 0.05
        D = build_D(n, eps, tau)
        k_min, k_max, bad = _brute_force_region(n, eps, tau)
        assert (D.k_min, D.k_max) == (k_min, k_max)
        assert D.bad_pairs == len(bad)
        for k in range(k_min, k_max + 1):
            for p in range(k + 1, k_max + 1):
                assert D.is_good(k, p) == ((k, p) not in bad), (k, p)

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

    def test_oversized_epsilon_no_crash(self):
        D = build_D(10, 1000.0, 0.05)
        assert D.total_pairs == 0
        assert D.bad_fraction == 0.0

