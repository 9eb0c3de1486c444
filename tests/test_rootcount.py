import math
import warnings

import numpy as np
import pytest

from oracles import dense_scan, laurent_roots
from trigroots.ensemble import CoefficientSample, gaussian, rademacher, sample
from trigroots.polyeval import FULL, HALF, eval_grid_batch, eval_points
from trigroots.rootcount import (
    _scan_and_audit,
    count_batch,
    count_kacrice,
    count_roots,
    gaussian_expectation_exact,
    roots_csv_rows,
)


def _manual(y):
    y = np.asarray(y, dtype=float)
    return CoefficientSample(n=y.shape[0], y=y, seed=0, trial_index=0)


def _dense_scan_count(s, window, points=2_000_001):
    ts = np.linspace(window.start(s.n), window.end(s.n), points)
    P, _ = eval_points(s, ts)
    sg = np.where(P >= 0.0, 1.0, -1.0)  # exact zeros join the + side
    return int(np.sum(sg[:-1] * sg[1:] < 0))


class TestCountRoots:
    def test_degree_one_always_two_roots(self, rng):
        for _ in range(10):
            a, b = rng.standard_normal(2)
            r = count_roots(_manual([[a, b]]), FULL)
            assert r.count == 2

    def test_against_dense_scan_oracle(self):
        s = sample(gaussian(), 4, seed=99)
        r = count_roots(s, FULL)
        assert r.count == _dense_scan_count(s, FULL)

    def test_dense_scan_oracle_more_sizes(self, rng):
        for n in (2, 5, 9, 16):
            s = sample(rademacher(), n, seed=int(rng.integers(2**31)))
            r = count_roots(s, FULL)
            assert r.count == _dense_scan_count(s, FULL), n

    def test_half_window_against_dense_scan(self, rng):
        for n in (3, 8, 13):
            s = sample(gaussian(), n, seed=int(rng.integers(2**31)))
            r = count_roots(s, HALF)
            assert r.count == _dense_scan_count(s, HALF)

    def test_mean_count_matches_exact_formula(self):
        n, trials = 50, 500
        counts = []
        for trial in range(trials):
            counts.append(count_roots(sample(gaussian(), n, seed=31, trial_index=trial),
                                      FULL).count)
        counts = np.array(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - gaussian_expectation_exact(n)) <= 3 * se

    def test_residuals_tiny(self):
        s = sample(gaussian(), 32, seed=4)
        r = count_roots(s, FULL)
        tol = r.tol
        bound = 1e-10 * (1.0 + np.abs(r.derivatives) * tol)
        assert np.all(r.residuals <= bound)

    def test_root_stability_under_tol_halving(self):
        s = sample(gaussian(), 16, seed=8)
        tol = 1e-10
        r1 = count_roots(s, FULL, tol=tol)
        r2 = count_roots(s, FULL, tol=tol / 2)
        assert r1.count == r2.count
        assert np.max(np.abs(r1.roots - r2.roots)) < 2 * tol

    def test_roots_sorted_and_within_window(self):
        s = sample(rademacher(), 20, seed=3)
        r = count_roots(s, FULL)
        assert np.all(np.diff(r.roots) > 0)
        assert r.roots[0] > -20 * math.pi - 1e-9
        assert r.roots[-1] <= 20 * math.pi + 1e-9
        assert r.count <= 2 * 20

    def test_parity_even_on_full_window(self):
        # periodic transversal crossings come in pairs
        from trigroots.ensemble import _draw
        rng = np.random.default_rng(77)
        for dist in (rademacher(), gaussian()):
            ys = _draw(dist, rng, (500, 24, 2))
            counts, uncertain = count_batch(ys, 24, FULL, 16 * 24)
            assert np.all(counts[~uncertain] % 2 == 0)

    def test_zero_sample_is_degenerate(self):
        r = count_roots(_manual(np.zeros((3, 2))), FULL)
        assert r.count == 0 and r.uncertain

    def test_batch_matches_single(self, rng):
        from trigroots.ensemble import _draw
        ys = _draw(gaussian(), rng, (60, 18, 2))
        counts, _ = count_batch(ys, 18, FULL, 16 * 18)
        for j in range(60):
            y = ys[j].copy()
            assert count_roots(_manual(y), FULL).count == counts[j]
        # half window, Rademacher: P(0) or P(n pi) can be exactly 0, so the
        # window closure must be the same in both paths; at t = n pi the
        # +-1 terms cancel exactly in trial 11, leaving no rounding residue
        ss = [sample(rademacher(), 32, seed=5, trial_index=t) for t in range(100)]
        counts, uncertain = count_batch(np.stack([s.y for s in ss]), 32, HALF, 16 * 32)
        for s, c, u in zip(ss, counts, uncertain):
            r = count_roots(s, HALF)
            assert (r.count, r.uncertain) == (c, u), s.trial_index
            if s.trial_index == 11:
                assert r.end_value == 0.0

    def test_double_root_on_a_node_stays_flagged(self):
        # the oracle counts 80 roots with multiplicity, two of them a double
        # root on the node t = -32 pi; the scan sees 78 and must say so
        s = sample(rademacher(), 64, seed=903, trial_index=83)
        roots = laurent_roots(s)
        assert roots.size == 80
        k = int(np.argmin(np.diff(roots)))
        assert roots[k + 1] - roots[k] < 1e-6
        assert abs(roots[k] + 32 * math.pi) < 1e-6
        r = count_roots(s, FULL)
        counts, uncertain = count_batch(s.y[None], 64, FULL, 16 * 64)
        assert (r.count, r.uncertain) == (78, True)
        assert (counts[0], uncertain[0]) == (78, True)

    def test_csv_rows(self):
        s = sample(gaussian(), 4, seed=5)
        r = count_roots(s, FULL)
        rows = roots_csv_rows(r, 17)
        assert len(rows) == r.count
        assert all(row[0] == 17 for row in rows)


class TestLeanScan:
    """The engine's crossing mask and audited cells against the dense
    all-cells formula of ``oracles.dense_scan``."""

    @pytest.mark.parametrize("law", [gaussian(), rademacher()], ids=str)
    @pytest.mark.parametrize("window", [FULL, HALF], ids=["full", "half"])
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_dense_formula(self, law, window, n):
        seed = {16: 32, 64: 33}[n]  # Rademacher zeros on nodes in both windows
        ys = np.stack([sample(law, n, seed=seed, trial_index=t).y for t in range(128)])
        P, Q = eval_grid_batch(ys, n, window, 16 * n)
        if law.kind == "rademacher":  # the +-1 sums vanish exactly at some nodes
            assert np.any(P == 0.0)
        scan = _scan_and_audit(ys, P, Q, window)
        crossing, audit = dense_scan(ys, P, Q, window)
        rows, cells = np.nonzero(audit)
        assert rows.size
        assert np.array_equal(scan.crossing, crossing)
        assert np.array_equal(scan.rows, rows)
        assert np.array_equal(scan.cells, cells)


class TestNonFinite:
    def test_all_nan_batch_is_flagged(self):
        counts, uncertain = count_batch(np.full((1, 8, 2), np.nan), 8, FULL, 128)
        assert uncertain.tolist() == [True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("window", [FULL, HALF], ids=["full", "half"])
    def test_only_the_bad_row_is_flagged(self, bad, window):
        ys = np.stack([sample(gaussian(), 8, seed=3, trial_index=t).y for t in range(3)])
        good_counts, good_uncertain = count_batch(ys, 8, window, 128)
        ys[1, 4, 0] = bad
        ys[1, 5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, uncertain = count_batch(ys, 8, window, 128)
        assert uncertain.tolist() == [bool(good_uncertain[0]), True, bool(good_uncertain[2])]
        assert counts[[0, 2]].tolist() == good_counts[[0, 2]].tolist()


class TestExactExpectation:
    def test_n1(self):
        assert gaussian_expectation_exact(1) == 2.0

    def test_n2(self):
        assert gaussian_expectation_exact(2) == pytest.approx(2 * math.sqrt(15 / 6))

    def test_asymptotic_ratio(self):
        # the ratio approaches 1 like 1 + 3/(4n)
        for n in (10**3, 10**5, 10**7):
            ratio = gaussian_expectation_exact(n) / (2 * n / math.sqrt(3))
            assert ratio == pytest.approx(1.0, abs=1.0 / n)

    def test_half_window_is_half(self):
        assert gaussian_expectation_exact(9, HALF) == \
            pytest.approx(gaussian_expectation_exact(9) / 2)


class TestKacRice:
    def test_pure_cosine(self):
        r = count_kacrice(_manual([[1.0, 0.0]]), FULL, delta=1e-6)
        assert r.value == pytest.approx(2.0, rel=1e-6)
        assert not r.flagged

    def test_rejects_delta_not_finite_and_positive(self):
        s = sample(gaussian(), 32, seed=1)
        for delta in (math.nan, math.inf, 0.0, -1e-6):
            with pytest.raises(ValueError):
                count_kacrice(s, FULL, delta=delta)

    def test_agreement_study(self):
        agree = 0
        unflagged_bad = 0
        trials = 100
        for trial in range(trials):
            s = sample(gaussian(), 64, seed=13, trial_index=trial)
            kr = count_kacrice(s, FULL, delta=1e-6)
            if abs(kr.value - kr.root_count) < 1e-3:
                agree += 1
            elif not kr.flagged:
                unflagged_bad += 1
        assert agree >= 99
        assert unflagged_bad == 0

    def test_scale_aware_delta_exact(self, rng):
        # delta well below the local linearization scale reproduces the count
        for _ in range(20):
            s = sample(gaussian(), 16, seed=int(rng.integers(2**31)))
            rr = count_roots(s, FULL)
            gap = np.min(np.diff(np.concatenate([rr.roots,
                                                 [rr.roots[0] + 32 * math.pi]])))
            delta = 1e-3 * gap * np.min(np.abs(rr.derivatives))
            kr = count_kacrice(s, FULL, delta=float(delta))
            assert abs(kr.value - rr.count) < 1e-6

    def test_oversized_delta_is_flagged(self):
        s = sample(gaussian(), 8, seed=21)
        kr = count_kacrice(s, FULL, delta=1e-6)
        big = count_kacrice(s, FULL, delta=2.0 * kr.safe_delta_estimate)
        assert big.flagged

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            count_kacrice(sample(gaussian(), 4, seed=0), FULL, delta=0.0)

    def test_joined_delta_intervals_are_flagged(self):
        # root pairs 0.0042, 0.00041 and 0.0029 apart whose |P| < delta sets
        # join: the integral cannot equal the count, so the flag must be up
        for law, n, seed, trial, count in ((gaussian(), 64, 1733000000, 84, 72),
                                           (rademacher(), 64, 1669000000, 77, 74),
                                           (gaussian(), 256, 4822000000, 13, 274)):
            kr = count_kacrice(sample(law, n, seed=seed, trial_index=trial), FULL,
                               delta=1e-6)
            assert kr.root_count == count
            assert abs(kr.value - count) > 1e-3
            assert kr.flagged

    def test_float_conversion(self):
        kr = count_kacrice(_manual([[1.0, 0.0]]), FULL, delta=1e-6)
        assert float(kr) == kr.value


def _tangent_sample(offset=0.0):
    """n=2 coefficients with P(a) = offset and P'(a) = 0 at a = 1.0.

    offset=0 is an exact double root; a small offset of the right sign
    splits it into a transversal pair.
    """
    n, a = 2, 1.0
    i = np.arange(1, n + 1)
    v1 = np.concatenate([np.cos(i * a / n), np.sin(i * a / n)])
    v2 = np.concatenate([-(i / n) * np.sin(i * a / n),
                         (i / n) * np.cos(i * a / n)])
    _, _, Vt = np.linalg.svd(np.vstack([v1, v2]))
    flat = Vt[2] + 0.3 * Vt[3] + offset * v1 / (v1 @ v1)
    y = np.column_stack([flat[:n], flat[n:]])
    y.setflags(write=False)
    return CoefficientSample(n, y, 0, 0)


class TestEngineeredTangency:
    def test_double_root_is_flagged_not_counted(self):
        s = _tangent_sample()
        r = count_roots(s, FULL)
        assert r.uncertain
        assert r.tangencies.size == 1
        assert abs(r.tangencies[0] - 1.0) < 1e-9  # the audit's t*
        assert r.count == 2  # the two transversal roots only

    def test_kacrice_sees_the_tangency_mass(self):
        # the |P| < delta dip of an exact double root integrates to 1
        s = _tangent_sample()
        kr = count_kacrice(s, FULL, delta=1e-6)
        assert kr.flagged
        assert kr.value == pytest.approx(3.0, abs=1e-6)

    def test_perturbed_tangency_resolves_to_a_pair(self):
        from oracles import eval_point
        base = _tangent_sample()
        side = np.sign(eval_point(base, 0.95)[0])
        split = _tangent_sample(offset=-side * 1e-4)
        r = count_roots(split, FULL)
        assert not r.uncertain
        assert r.count == 4
        kr = count_kacrice(split, FULL, delta=1e-7)
        assert not kr.flagged
        assert kr.value == pytest.approx(4.0, abs=1e-5)

    def test_batch_agrees_on_audited_samples(self, rng):
        # condition specifically on samples whose scan needed the audit
        from trigroots.ensemble import _draw
        from trigroots.rootcount import count_batch
        hits = 0
        for _ in range(40):
            ys = _draw(gaussian(), rng, (64, 8, 2))
            counts, uncertain = count_batch(ys, 8, FULL, 16 * 8)
            for j in range(64):
                y = ys[j].copy()
                y.setflags(write=False)
                r = count_roots(CoefficientSample(8, y, 0, 0), FULL)
                if r.tangency_cells:
                    hits += 1
                    assert counts[j] == r.count
                    assert bool(uncertain[j]) == r.uncertain
            if hits >= 20:
                break
        assert hits >= 20
