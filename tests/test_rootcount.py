import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from oracles import dense_scan, eval_point, laurent_roots
from trigroots import rootcount
from trigroots.ensemble import CoefficientSample, gaussian, rademacher, sample
from trigroots.polyeval import (
    FULL,
    eval_grid,
    eval_grid_batch,
    eval_points,
    grid_size,
    grid_spacing,
    pass_rows,
)
from trigroots.rootcount import (
    _find_level_crossing,
    _audit,
    _newton,
    _scan,
    count_batch,
    count_kacrice,
    count_roots,
    gaussian_expectation_exact,
)

#: keeps the test ids of the cases that once also ran on the half window
FULL_ID = pytest.mark.parametrize((), [()], ids=["full"])


def _manual(y):
    y = np.asarray(y, dtype=float)
    return CoefficientSample(n=y.shape[0], y=y, seed=0, trial_index=0)


def _dense_scan_count(s, points=2_000_001):
    ts = np.linspace(-s.n * math.pi, s.n * math.pi, points)
    P, _ = eval_points(s, ts)
    sg = np.where(P >= 0.0, 1.0, -1.0)  # exact zeros join the + side
    return int(np.sum(sg[:-1] * sg[1:] < 0))


class TestCountRoots:
    def test_degree_one_always_two_roots(self, rng):
        for _ in range(10):
            a, b = rng.standard_normal(2)
            r = count_roots(_manual([[a, b]]))
            assert r.count == 2

    def test_against_dense_scan_oracle(self):
        s = sample(gaussian(), 4, seed=99)
        r = count_roots(s)
        assert r.count == _dense_scan_count(s)

    def test_dense_scan_oracle_more_sizes(self, rng):
        for n in (2, 5, 9, 16):
            s = sample(rademacher(), n, seed=int(rng.integers(2**31)))
            r = count_roots(s)
            assert r.count == _dense_scan_count(s), n

    def test_mean_count_matches_exact_formula(self):
        n, trials = 50, 500
        counts = []
        for trial in range(trials):
            counts.append(count_roots(sample(gaussian(), n, seed=31, trial_index=trial)).count)
        counts = np.array(counts, dtype=float)
        se = counts.std(ddof=1) / math.sqrt(trials)
        assert abs(counts.mean() - gaussian_expectation_exact(n)) <= 3 * se

    def test_residuals_tiny(self):
        s = sample(gaussian(), 32, seed=4)
        r = count_roots(s)
        tol = r.tol
        bound = 1e-10 * (1.0 + np.abs(r.derivatives) * tol)
        assert np.all(r.residuals <= bound)

    def test_root_stability_under_tol_halving(self):
        s = sample(gaussian(), 16, seed=8)
        tol = 1e-10
        r1 = count_roots(s, tol=tol)
        r2 = count_roots(s, tol=tol / 2)
        assert r1.count == r2.count
        assert np.max(np.abs(r1.roots - r2.roots)) < 2 * tol

    def test_roots_sorted_and_within_window(self):
        s = sample(rademacher(), 20, seed=3)
        r = count_roots(s)
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
        r = count_roots(_manual(np.zeros((3, 2))))
        assert r.count == 0 and r.uncertain

    def test_batch_matches_single(self, rng):
        from trigroots.ensemble import _draw
        ys = _draw(gaussian(), rng, (60, 18, 2))
        counts, _ = count_batch(ys, 18, FULL, 16 * 18)
        for j in range(60):
            y = ys[j].copy()
            assert count_roots(_manual(y)).count == counts[j]

    def test_double_root_on_a_node_stays_flagged(self):
        # the oracle counts 80 roots with multiplicity, two of them a double
        # root on the node t = -32 pi; the scan sees 78 and must say so
        s = sample(rademacher(), 64, seed=903, trial_index=83)
        roots = laurent_roots(s)
        assert roots.size == 80
        k = int(np.argmin(np.diff(roots)))
        assert roots[k + 1] - roots[k] < 1e-6
        assert abs(roots[k] + 32 * math.pi) < 1e-6
        r = count_roots(s)
        counts, uncertain = count_batch(s.y[None], 64, FULL, 16 * 64)
        assert (r.count, r.uncertain) == (78, True)
        assert (counts[0], uncertain[0]) == (78, True)


class TestLeanScan:
    """The engine's crossing mask and audited cells against the dense
    all-cells formula of ``oracles.dense_scan``."""

    @pytest.mark.parametrize("law", [gaussian(), rademacher()], ids=str)
    @FULL_ID
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_dense_formula(self, law, n):
        seed = {16: 32, 64: 33}[n]  # Rademacher zeros on nodes
        ys = np.stack([sample(law, n, seed=seed, trial_index=t).y for t in range(128)])
        G = eval_grid_batch(ys, n, 16 * n)
        if law.kind == "rademacher":  # the +-1 sums vanish exactly at some nodes
            assert np.any(G.real == 0.0)
        crossing, audit = dense_scan(ys, G.real.copy(), G.imag.copy())
        scanned, _, _, found = _scan(ys, G)  # G is scratch to the scan
        rows, cells = np.nonzero(audit)
        assert rows.size
        assert np.array_equal(scanned, crossing)
        assert np.array_equal(found.rows, rows)
        assert np.array_equal(found.cells, cells)


def _hermite(p0, p1, q0, q1, h, x):
    """The cubic Hermite interpolant of a cell's end values and slopes at
    cell coordinates x in [0, 1] (cells along axis 0)."""
    x = x[None, :]
    x2, x3 = x * x, x * x * x
    return (p0[:, None] * (2 * x3 - 3 * x2 + 1) + (h * q0)[:, None] * (x3 - 2 * x2 + x)
            + p1[:, None] * (-2 * x3 + 3 * x2) + (h * q1)[:, None] * (x3 - x2))


class TestHermiteScreen:
    """The audit keeps the cubic-Hermite verdict of a cell only outside
    twice the proven interpolation error h^4/384 sup|P|, with sup|P| bounded
    by the period's grid maximum over 1 - h^2/8.  Checked on the cells
    ``count_batch`` audits, as ``_scan`` hands them to ``_audit``."""

    # Rademacher seed 7016 holds tangencies and node zeros at n = 16
    CASES = [(law, n) for law in (gaussian(), rademacher()) for n in (16, 64, 256)]
    IDS = [f"{law}-full-{n}" for law, n in CASES]  # the ids of FULL_ID's cases
    TRIALS = {16: 1024, 64: 128, 256: 32}

    def _run(self, law, n):
        """(samples, coefficients, period grids, audited cells, status, t_star)"""
        ss = [sample(law, n, seed=7000 + n, trial_index=t) for t in range(self.TRIALS[n])]
        ys = np.stack([s.y for s in ss])
        G = eval_grid_batch(ys, n, 16 * n)
        _, counts, uncertain, found = _scan(ys, G)
        cells, status, t_star = _audit(ys, 16 * n, [found], counts, uncertain)
        assert cells.rows.size
        return ss, ys, G, cells, status, t_star

    @pytest.mark.parametrize("law, n", CASES, ids=IDS)
    def test_interpolant_within_bound(self, law, n):
        ss, _, G, (rows, cells, p0, p1, q0, q1, scale), _, _ = self._run(law, n)
        h = grid_spacing(n, 16 * n)
        t_left = -n * math.pi + h * cells
        S = np.abs(G.real).max(axis=1)  # max |P| over one period
        assert np.array_equal(scale, S[rows])
        audited = np.unique(rows)
        assert S[audited].tobytes() == np.array(
            [np.abs(eval_grid(ss[r]).derivs[:, 0]).max() for r in audited]).tobytes()
        x = np.linspace(0.0, 1.0, 33)
        H = _hermite(p0, p1, q0, q1, h, x)
        bound = h ** 4 / 384.0 / (1.0 - h * h / 8.0) * S[rows]
        for r in audited:
            k = rows == r
            exact, _ = eval_points(ss[r], (t_left[k, None] + h * x).ravel())
            err = np.abs(H[k] - exact.reshape(-1, x.size)).max(axis=1)
            assert np.all(err <= bound[k]), (r, err.max(), bound[k].min())

    @pytest.mark.parametrize("law, n", CASES, ids=IDS)
    def test_screen_agrees_with_exact_search(self, monkeypatch, law, n):
        ss, ys, _, cells, status, t_star = self._run(law, n)
        # every cell through Newton: no interpolant extremum screens any cell
        monkeypatch.setattr(rootcount, "_hermite_extremum",
                            lambda p0, *_: (np.full_like(p0, np.nan), np.zeros_like(p0)))
        _, exact, _ = _audit(ys, 16 * n, [cells], np.zeros(len(ys), dtype=np.intp),
                             np.zeros(len(ys), dtype=bool))
        assert np.array_equal(status, exact)
        # a double cell's t_star splits it into two brackets for count_roots
        for k in np.flatnonzero(status == rootcount._AUDIT_DOUBLE):
            p_star, _ = eval_points(ss[cells.rows[k]], t_star[k:k + 1])
            assert (p_star[0] >= 0.0) != (cells.p0[k] >= 0.0), k


class TestCountsPinned:
    """``count_batch`` counts and flags on a seeded set, pinned by a sha256
    of the counts as they were before the screen bound and the word scan:
    any change to the scan or the audit that moves a count or a flag shows
    here."""

    DIGEST = "3623e4e4f6daa08bac6f0a86df0bd23cc5799758c86e34ea19b539e85483e219"

    def test_counts_and_flags_unchanged(self):
        from trigroots.ensemble import draw_trials
        cases = [(gaussian(), 64, 7064, 2000), (rademacher(), 64, 7064, 2000),
                 (rademacher(), 16, 902, 4000)]
        digest = hashlib.sha256()
        for law, n, seed, trials in cases:
            counts, uncertain = count_batch(draw_trials(law, n, seed, 0, trials), n, FULL,
                                            16 * n)
            digest.update(counts.astype("<i8").tobytes())
            digest.update(uncertain.tobytes())
        assert digest.hexdigest() == self.DIGEST

    #: of the counts as they were while every pass had an audit of its own
    MANY_PASS_DIGEST = "8ba55a8d0cf09c8f62793a0b5901cb975387b4005525d7a736587a3e262399f9"

    def test_many_pass_counts_unchanged(self):
        """n = 256 and 1024 chunks run 4 to 8 passes and audit many cells."""
        from trigroots.ensemble import draw_trials
        digest = hashlib.sha256()
        for law in (gaussian(), rademacher()):
            for n, trials, seed in ((256, 256, 8256), (1024, 64, 81024)):
                counts, uncertain = count_batch(draw_trials(law, n, seed, 0, trials), n,
                                                FULL, 16 * n)
                digest.update(counts.astype("<i8").tobytes())
                digest.update(uncertain.tobytes())
        assert digest.hexdigest() == self.MANY_PASS_DIGEST


class TestSingleSamplePinned:
    """``count_roots`` and ``count_kacrice`` on a seeded set, pinned by a
    sha256 of every field they compute: a change to the single-sample path
    that moves a root, a residual, a tangency or a flag shows here."""

    #: of the results as they were once ``_newton`` began to probe the far
    #: bracket end: five Rademacher roots moved by 2-43 ulps then, with one
    #: residual and derivative; counts, flags, tangencies and Kac-Rice values
    #: did not
    DIGEST = "62ffe87b6c374940ed97ea29a7baa829b9e8763ffc76d3765596ebe6caf0c01c"
    # Rademacher trials 120 and 351 at n = 16 end in tangencies
    TRIALS = {16: [*range(48), 120, 351], 64: range(12), 256: range(4)}

    def test_results_unchanged(self):
        digest = hashlib.sha256()
        tangent = flagged = 0
        for law in (gaussian(), rademacher()):
            for n, trials in self.TRIALS.items():
                for t in trials:
                    s = sample(law, n, seed=7000 + n, trial_index=t)
                    r = count_roots(s)
                    for a in (r.roots, r.residuals, r.derivatives, r.tangencies):
                        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
                    digest.update(f"{r.count} {r.uncertain} {float(r.grid.P[0]).hex()}".encode())
                    kr = count_kacrice(s)
                    digest.update(f"{kr.value.hex()} {kr.flagged}".encode())
                    tangent += r.tangencies.size > 0
                    flagged += kr.flagged
        assert tangent and flagged  # the pin covers tangencies and flags
        assert digest.hexdigest() == self.DIGEST


class TestNonFinite:
    def test_all_nan_batch_is_flagged(self):
        counts, uncertain = count_batch(np.full((1, 8, 2), np.nan), 8, FULL, 128)
        assert uncertain.tolist() == [True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @FULL_ID
    def test_only_the_bad_row_is_flagged(self, bad):
        ys = np.stack([sample(gaussian(), 8, seed=3, trial_index=t).y for t in range(3)])
        good_counts, good_uncertain = count_batch(ys, 8, FULL, 128)
        ys[1, 4, 0] = bad
        ys[1, 5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts, uncertain = count_batch(ys, 8, FULL, 128)
        assert uncertain.tolist() == [bool(good_uncertain[0]), True, bool(good_uncertain[2])]
        assert counts[[0, 2]].tolist() == good_counts[[0, 2]].tolist()


class TestBatchArguments:
    """``count_batch`` refuses bad arguments by name, before any numpy call."""

    def test_refuses_a_degree_not_the_samples(self):
        s = sample(gaussian(), 8, seed=0)
        with pytest.raises(ValueError, match=r"ys must have shape \(B, 9, 2\)"):
            count_batch(s.y[None], 9, FULL, 144)

    def test_refuses_a_two_dimensional_batch(self):
        s = sample(gaussian(), 8, seed=0)
        with pytest.raises(ValueError, match="ys must have shape"):
            count_batch(s.y, 8, FULL, 128)

    @pytest.mark.parametrize("M", [128.0, True])
    def test_refuses_a_non_integer_M(self, M):
        s = sample(gaussian(), 8, seed=0)
        with pytest.raises(ValueError, match="M must be an integer"):
            count_batch(s.y[None], 8, FULL, M)

    @pytest.mark.parametrize("window", ["half", None, 0])
    def test_refuses_a_window_not_the_one(self, window):
        s = sample(gaussian(), 8, seed=0)
        with pytest.raises(ValueError, match="window must be 'full'"):
            count_batch(s.y[None], 8, window, 128)


class TestPasses:
    """``count_batch`` runs in row blocks of ``pass_rows`` rows; a block is
    a batch of its own, so the blocks' results are the rows' results."""

    def test_pass_rule(self):
        for n, rows in ((64, 256), (256, 64), (1024, 16), (4096, 4)):
            assert pass_rows(n, grid_size(n)) == rows
        assert pass_rows(4096, 1 << 40) == 1

    @FULL_ID
    # (1024, 37, 2, 20): the non-finite row is in the first block, and a
    # finite row of the next block reuses its slot of the pass buffer
    @pytest.mark.parametrize("n, trials, bad, zero", [(64, 300, 290, 7), (1024, 37, 30, 3),
                                                      (1024, 37, 2, 20)])
    def test_blocks_are_the_rows(self, n, trials, bad, zero):
        M = 16 * n
        step = pass_rows(n, M)
        assert trials % step and bad // step != zero // step
        ys = np.stack([sample(gaussian(), n, seed=41, trial_index=t).y for t in range(trials)])
        ys[bad, 5, 0] = np.inf
        ys[zero] = 0.0
        counts, uncertain = count_batch(ys, n, FULL, M)
        rows = [count_batch(ys[k:k + 1], n, FULL, M) for k in range(trials)]
        assert counts.tolist() == [int(c[0]) for c, _ in rows]
        assert uncertain.tolist() == [bool(u[0]) for _, u in rows]
        assert uncertain[bad] and uncertain[zero] and not uncertain.all()

    def test_one_audit_a_call(self, monkeypatch):
        """The candidate cells of every pass go to one ``_audit`` call,
        with their rows in the call's batch."""
        seen = []
        audit = rootcount._audit
        monkeypatch.setattr(rootcount, "_audit", lambda *a: seen.append(audit(*a)) or seen[-1])
        ys = np.stack([sample(gaussian(), 1024, seed=41, trial_index=t).y for t in range(37)])
        count_batch(ys, 1024, FULL, grid_size(1024))
        step = pass_rows(1024, grid_size(1024))
        assert len(seen) == 1 and -(-37 // step) == 3
        assert set(seen[0][0].rows // step) == {0, 1, 2}

    @FULL_ID
    def test_no_audit_without_candidates(self, monkeypatch):
        """A batch with no candidate cell never reaches the audit's screen:
        degree one (a sinusoid dips only at its sign changes), all zeros, and
        an all-NaN batch of several passes."""
        from trigroots.ensemble import draw_trials

        def refuse(*a):
            raise AssertionError("audit screen run without candidates")
        monkeypatch.setattr(rootcount, "_hermite_extremum", refuse)
        for law in (gaussian(), rademacher()):
            counts, uncertain = count_batch(draw_trials(law, 1, 3, 0, 300), 1, FULL, 16)
            assert counts.tolist() == [2] * 300 and not uncertain.any()
        counts, uncertain = count_batch(np.zeros((300, 64, 2)), 64, FULL, 1024)
        assert not counts.any() and uncertain.all()
        assert 37 > pass_rows(1024, grid_size(1024))
        counts, uncertain = count_batch(np.full((37, 1024, 2), np.nan), 1024, FULL,
                                        grid_size(1024))
        assert not counts.any() and uncertain.all()

    def test_n4096_audit_fits_in_memory(self):
        """One audit takes all exact cells of a 256-trial n = 4096 call; its
        Taylor tables are built a bounded chunk of cells at a time."""
        from trigroots.ensemble import draw_trials
        ys = draw_trials(gaussian(), 4096, 5, 0, 256)
        tracemalloc.start()
        try:
            counts, uncertain = count_batch(ys, 4096, FULL, grid_size(4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert counts.shape == (256,) and not uncertain.any()

    def test_n4096_chunk_fits_in_memory(self):
        ys = np.stack([sample(gaussian(), 4096, seed=5, trial_index=t).y for t in range(64)])
        tracemalloc.start()
        try:
            counts, uncertain = count_batch(ys, 4096, FULL, grid_size(4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert counts.shape == (64,) and not uncertain.any()


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

    @pytest.mark.parametrize("n", [2.5, True, np.float64(4.0), 0])
    def test_refuses_n_not_an_integer_at_least_one(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            gaussian_expectation_exact(n)


class TestKacRice:
    def test_pure_cosine(self):
        r = count_kacrice(_manual([[1.0, 0.0]]), delta=1e-6)
        assert r.value == pytest.approx(2.0, rel=1e-6)
        assert not r.flagged

    def test_rejects_delta_not_finite_and_positive(self):
        s = sample(gaussian(), 32, seed=1)
        for delta in (math.nan, math.inf, 0.0, -1e-6):
            with pytest.raises(ValueError):
                count_kacrice(s, delta=delta)

    def test_agreement_study(self):
        agree = 0
        unflagged_bad = 0
        trials = 100
        for trial in range(trials):
            s = sample(gaussian(), 64, seed=13, trial_index=trial)
            kr = count_kacrice(s, delta=1e-6)
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
            rr = count_roots(s)
            gap = np.min(np.diff(np.concatenate([rr.roots,
                                                 [rr.roots[0] + 32 * math.pi]])))
            delta = 1e-3 * gap * np.min(np.abs(rr.derivatives))
            kr = count_kacrice(s, delta=float(delta))
            assert abs(kr.value - rr.count) < 1e-6

    def test_oversized_delta_is_flagged(self):
        s = sample(gaussian(), 8, seed=21)
        kr = count_kacrice(s, delta=1e-6)
        big = count_kacrice(s, delta=2.0 * kr.safe_delta_estimate)
        assert big.flagged

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            count_kacrice(sample(gaussian(), 4, seed=0), delta=0.0)

    def test_joined_delta_intervals_are_flagged(self):
        # root pairs 0.0042, 0.00041 and 0.0029 apart whose |P| < delta sets
        # join: the integral cannot equal the count, so the flag must be up
        for law, n, seed, trial, count in ((gaussian(), 64, 1733000000, 84, 72),
                                           (rademacher(), 64, 1669000000, 77, 74),
                                           (gaussian(), 256, 4822000000, 13, 274)):
            kr = count_kacrice(sample(law, n, seed=seed, trial_index=trial), delta=1e-6)
            assert kr.root_count == count
            assert abs(kr.value - count) > 1e-3
            assert kr.flagged

    def test_result_does_not_keep_the_grid(self, monkeypatch):
        stacks = []

        def tracked(*args, **kwargs):
            grid = eval_grid(*args, **kwargs)
            stacks.append(weakref.ref(grid.derivs))
            return grid

        monkeypatch.setattr(rootcount, "eval_grid", tracked)
        s = sample(gaussian(), 64, seed=9)
        kr = count_kacrice(s)
        assert kr.root_result.grid is None and kr.root_count > 0
        assert len(stacks) == 1 and stacks[0]() is None
        assert count_roots(s).grid.derivs is stacks[1]()


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
        r = count_roots(s)
        assert r.uncertain
        assert r.tangencies.size == 1
        assert abs(r.tangencies[0] - 1.0) < 1e-9  # the audit's t*
        assert r.count == 2  # the two transversal roots only

    @FULL_ID
    def test_double_root_is_flagged_on_fine_grids(self):
        # at M = 2^16 the Hermite error bound is ~1e-18 of scale, so only the
        # tangency floor of the screen's margin sends the cell to Newton
        s = _tangent_sample()
        for M in (32, 2**10, 2**16):
            counts, uncertain = count_batch(s.y[None], 2, FULL, M)
            assert uncertain[0], M

    def test_kacrice_sees_the_tangency_mass(self):
        # the |P| < delta dip of an exact double root integrates to 1
        s = _tangent_sample()
        kr = count_kacrice(s, delta=1e-6)
        assert kr.flagged
        assert kr.value == pytest.approx(3.0, abs=1e-6)

    def test_perturbed_tangency_resolves_to_a_pair(self):
        from oracles import eval_point
        base = _tangent_sample()
        side = np.sign(eval_point(base, 0.95)[0])
        split = _tangent_sample(offset=-side * 1e-4)
        r = count_roots(split)
        assert not r.uncertain
        assert r.count == 4
        kr = count_kacrice(split, delta=1e-7)
        assert not kr.flagged
        assert kr.value == pytest.approx(4.0, abs=1e-5)

    def test_batch_agrees_on_audited_samples(self, rng):
        # condition specifically on samples whose scan needed the audit
        from trigroots.ensemble import _draw
        hits = 0
        for _ in range(40):
            ys = _draw(gaussian(), rng, (64, 8, 2))
            counts, uncertain = count_batch(ys, 8, FULL, 16 * 8)
            for j in range(64):
                y = ys[j].copy()
                y.setflags(write=False)
                r = count_roots(CoefficientSample(8, y, 0, 0))
                F = np.empty((1, r.grid.M), dtype=complex)
                F.real, F.imag = r.grid.P, r.grid.Pprime
                if _scan(y[None], F)[-1].cells.size:
                    hits += 1
                    assert counts[j] == r.count
                    assert bool(uncertain[j]) == r.uncertain
            if hits >= 20:
                break
        assert hits >= 20


class TestNewton:
    """The safeguarded Newton search behind the root polish, the delta
    crossings and the audit's stationary point."""

    @pytest.mark.parametrize("law", [gaussian(), rademacher()], ids=str)
    @pytest.mark.parametrize("n", [64, 256])
    def test_crossings_within_one_ulp(self, law, n):
        # |P| - delta changes sign within one float of every crossing
        delta = 1e-6
        for trial in range(8):
            r = count_roots(sample(law, n, seed=2031, trial_index=trial))
            c = _find_level_crossing(r.grid, r.roots, r.derivatives, delta)
            below = np.abs(r.grid.eval_local(np.nextafter(c, -np.inf))[0]) < delta
            above = np.abs(r.grid.eval_local(np.nextafter(c, np.inf))[0]) < delta
            assert c.shape == (2, r.count)
            assert np.all(below != above), trial

    def test_start_whose_first_step_leaves_the_bracket(self):
        # from next to the pair's stationary point near t = 1 the first
        # Newton step is thousands of units long; the search still lands
        # on the oracle roots either side
        base = _tangent_sample()
        s = _tangent_sample(offset=-np.sign(eval_point(base, 0.95)[0]) * 1e-4)
        pair = laurent_roots(s)
        pair = pair[np.abs(pair - 1.0) < 0.1]
        assert pair.size == 2
        grid = count_roots(s).grid
        for root, a, b, x0 in ((pair[0], pair[0] - 0.05, 1.0, 1.0 - 1e-7),
                               (pair[1], 1.0, pair[1] + 0.05, 1.0 + 1e-7)):
            p, q = grid.eval_local(x0)
            assert not a < x0 - p / q < b
            up = grid.eval_local(a)[0] >= 0.0
            x = _newton(grid.eval_local, np.array([a]), np.array([b]), np.array([x0]),
                        up, 1e-12)
            assert abs(x[0] - root) < 1e-12
            assert abs(eval_point(s, x[0])[0]) < 1e-15

    @pytest.mark.parametrize("law", [gaussian(), rademacher()], ids=str)
    @pytest.mark.parametrize("n", [64, 256])
    def test_roots_are_oracle_zeros(self, law, n):
        for trial in range(4):
            s = sample(law, n, seed=2031, trial_index=trial)
            r = count_roots(s)
            scale = float(np.max(np.abs(r.grid.P)))
            resid = np.array([eval_point(s, t)[0] for t in r.roots])
            assert np.max(np.abs(resid)) <= 1e-12 * scale, trial

    @staticmethod
    def _counted(fg):
        calls = []

        def f(t):
            calls.append(t)
            return fg(t)
        return f, calls

    @pytest.mark.parametrize("reverse", [False, True], ids=["a<b", "a>b"])
    def test_root_ulps_inside_the_far_end(self, reverse):
        # g = t^2 - r^2 is convex, so every Newton step from left of r lands
        # past r, and past the end b = 1 while r is a few ulps inside it;
        # halving towards b took 28 evaluations, the probe of b takes 2-3
        r = 1.0 - np.array([1.0, 2.0, 4.0, 8.0]) * 2.0 ** -53
        ends = (np.zeros(4), np.ones(4))
        a, b = ends[::-1] if reverse else ends
        for tol in (1e-12, 0.0):
            fg, calls = self._counted(lambda t: ((t - r) * (t + r), 2.0 * t))
            x = _newton(fg, a, b, np.full(4, 0.5), bool(reverse), tol)
            assert np.all(np.abs(x - r) <= max(tol, np.spacing(1.0))), tol
            assert len(calls) <= 8, tol

    def test_short_step_out_past_the_end_is_not_a_root(self):
        # g has an interior root at 0.6 and the next one just past b = 1,
        # where g(b) = -1e-17 and g' = 0.48: the step from b rounds onto b.
        # The first step from the start, next to g's maximum, lands past b.
        # The search must find 0.6, not the neighbour's root at b.
        def fg(t):
            return (t - 0.6) * (t - 1.0) * (t + 0.2) - 1e-17, (3.0 * t - 2.8) * t + 0.28
        f, calls = self._counted(fg)
        x = _newton(f, np.array([0.0]), np.array([1.0]), np.array([0.12]), True, 1e-12)
        assert any(np.all(t == 1.0) for t in calls)  # b was probed
        assert abs(x[0] - 0.6) <= 1e-12

    def test_exact_zero_on_an_end_is_returned(self):
        # g = t^2 - 1 is 0 at t = 1 and t = -1, the + side ends of [0, 1]
        # and [-1, 0]: Newton from the midpoint lands past the zero, and the
        # probe returns it exactly
        fg, calls = self._counted(lambda t: (t * t - 1.0, 2.0 * t))
        x = _newton(fg, np.array([0.0, -1.0]), np.array([1.0, 0.0]), np.array([0.5, -0.5]),
                    np.array([False, True]), 1e-12)
        assert x.tolist() == [1.0, -1.0]
        assert len(calls) <= 3

    @FULL_ID
    def test_polish_needs_no_halving_on_lattice_samples(self, monkeypatch):
        # Rademacher roots on grid nodes once took 20-35 evaluations a call
        # (37 calls of 200 at n = 64); the polish is the
        # only eval_local caller in count_roots.  n = 16 trial 120 is left
        # out: a root pair 1.3e-7 apart straddles t = 8 pi, where Newton is
        # linear near a double root (25 evaluations).
        from trigroots.polyeval import EvaluationGrid
        local, calls = EvaluationGrid.eval_local, []

        def counted(grid, ts):
            calls.append(1)
            return local(grid, ts)
        monkeypatch.setattr(EvaluationGrid, "eval_local", counted)
        slow = []
        for n in (64, 16):
            for k in range(200):
                if (n, k) == (16, 120):
                    continue
                calls.clear()
                count_roots(sample(rademacher(), n, seed=7000 + n, trial_index=k))
                if len(calls) >= 15:
                    slow.append((n, k, len(calls)))
        assert not slow
