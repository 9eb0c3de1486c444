"""The benchmark's work: an interleaved schedule of operations, output
checks, and the per-layer analysis of traced operations.

A workload fixes the coefficient law.  Every workload runs the same kinds
of operation on inputs made from its seed, so every end-to-end metric has a
value on every workload.  The run is a closed loop with one caller; its
operations, spread evenly over the run so slow phases of a shared machine
hit every kind alike, are:

* ``mc64``, ``mc256``, ``mc1024``: ``mcstats.run_experiment`` at
  parallelism 1 (default M = 16 n, default chunk size), trial counts sized
  so each n takes a similar share of the run;
* ``p2``: the same at n = 256 and parallelism 2;
* ``single64``, ``single256``: one sample through ``rootcount.count_roots``
  and then ``rootcount.count_kacrice(delta=1e-6)``;
* ``sb2``, ``sb4``: ``charprobe.small_ball_mc`` at n = 200 with 200 000
  walks, on a ball in the plane and on one in R^4;
* ``analytic``: ``compute_cg``, ``c_n_alpha`` at n = 1e5 on a (s, t) pair,
  ``gauss_expect_psi_H``, ``build_D`` at n = 1e4 and ``decay_scan`` at
  n = 500.

The speed of a shared host drifts by up to half again from one minute to
the next, and CPU time drifts with wall time.  So a fixed reference
computation of the benchmark's own (``Reference``) is timed before every
call and after the last, and each call's time is scaled to the host speed
at which the reference takes ``REF_NOMINAL_S``.

Only public names of the program are called.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

from trigroots import (cganalytic, charprobe, diophantine, edgeworth, ensemble,
                       mcstats, polyeval, rootcount)

import measure

LAWS = {"gaussian": ensemble.gaussian, "rademacher": ensemble.rademacher}

#: Monte Carlo kinds: n, trials per call, workers
MC_KINDS = {"mc64": (64, 1024, 1), "mc256": (256, 256, 1),
            "mc1024": (1024, 256, 1), "p2": (256, 4096, 2)}
SINGLE_KINDS = {"single64": 64, "single256": 256}
SB_KINDS = {"sb2": 2, "sb4": 4}
#: calls of each kind in a run of NOMINAL_SECONDS; a traced run splits
#: them between traced and untraced calls, and each half's 100 n = 64
#: samples still leave 10 beyond their p90
SCHEDULE = {"mc64": 20, "mc256": 12, "mc1024": 6, "p2": 4, "single64": 200,
            "single256": 20, "sb2": 2, "sb4": 2, "analytic": 8}
MIN_CALLS = {"single64": 200}  # every other kind: 2, one for each half
NOMINAL_SECONDS = 40
KACRICE_DELTA = 1e-6
SB_N, SB_WALKS = 200, 200_000
SB_DELTA = {2: 0.05, 4: 0.15}
CN_N = 100_000
CN_ALPHAS = ((1, 1, 3, 3), (2, 2, 4, 4))
PSI_ALPHA = (1, 1, 3, 3)
D_N, DECAY_N = 10_000, 500

#: the reference takes this long on the nominal host; each call's time is
#: scaled by the median of the REF_WINDOW reference times nearest it
REF_NOMINAL_S = 0.010
REF_WINDOW = 8

#: tolerances of the output checks
MEAN_SE = 4.0                 # gaussian MC mean against the exact formula
RADEMACHER_MEAN_REL = 0.01    # rademacher MC mean against the same formula
KACRICE_TOL = 1e-3
CG_TARGET, CG_TOL = 0.55826, 5e-4
ORACLE_SE = 3.0
P_OVER_D_MAX = {2: 50.0, 4: 500.0}   # p / delta^d caps of the small-ball probes
CN_TOL, PSI_TOL = 1e-4, 1e-3

_KIND_TAGS = {kind: i + 1 for i, kind in enumerate(SCHEDULE)}


class Inputs:
    """Every input of a run, made from the workload seed."""

    def __init__(self, law_name: str, seed: int):
        self.law_name = law_name
        self.law = LAWS[law_name]()
        self.seed = int(seed)
        rng = np.random.default_rng([self.seed, 7])
        self.center = {2: np.array([rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6)]),
                       4: rng.uniform(-0.5, 0.5, 4)}
        self.sb_t = good_t(SB_N, math.sqrt(5) * 0.5 - 0.8)
        self.sb_pair = good_pair(SB_N)
        self.decay_t = good_t(DECAY_N, math.sqrt(2) - 1.0)
        self.cn_t = math.pi * (math.sqrt(2) - 1.0) * CN_N
        self.cn_s = math.pi * (math.sqrt(3) - 1.0) * CN_N

    def program_seed(self, kind: str, k: int) -> int:
        """Seed of the k-th call of a kind; distinct across kinds and calls."""
        return (self.seed * 16 + _KIND_TAGS[kind]) * 1_000_000 + k

    def sample(self, kind: str, k: int):
        return ensemble.sample(self.law, SINGLE_KINDS[kind],
                               seed=self.program_seed(kind, 0), trial_index=k)


def good_t(n: int, anchor: float, tau: float = 0.05) -> float:
    """A window point near anchor * pi * n passing the non-resonance test."""
    for shift in np.linspace(0.0, 0.1, 41):
        t = (anchor + shift) * math.pi * n
        if diophantine.check_condition_t(n, t, tau).satisfied:
            return t
    raise RuntimeError(f"no non-resonant point near {anchor} at n={n}")


def good_pair(n: int, tau: float = 0.05) -> tuple[float, float]:
    anchors = [(math.sqrt(2) - 1.0, math.sqrt(3) - 1.0),
               (math.sqrt(5) - 2.0, math.sqrt(7) - 2.0),
               (math.pi / 8.0, math.e / 4.0)]
    for a, b in anchors:
        s, t = a * math.pi * n, b * math.pi * n
        if diophantine.check_condition_st(n, s, t, tau).satisfied:
            return s, t
    raise RuntimeError(f"no non-resonant pair at n={n}")


def schedule(seconds: int) -> list[tuple[str, int]]:
    """(kind, k) calls of a run, each kind spread evenly over the run."""
    scale = seconds / NOMINAL_SECONDS
    slots = []
    for order, (kind, base) in enumerate(SCHEDULE.items()):
        count = max(MIN_CALLS.get(kind, 2), round(base * scale))
        slots += [((k + 0.5) / count, order, kind, k) for k in range(count)]
    return [(kind, k) for _, _, kind, k in sorted(slots)]


def warm_up(law) -> None:
    """One small call down each path, so lazy set-up is not timed."""
    mcstats.run_experiment(law, 16, trials=8, seed=0)
    s = ensemble.sample(law, 16, seed=0)
    rootcount.count_kacrice(s, delta=KACRICE_DELTA)
    charprobe.small_ball_mc(16, 1.0, law, np.zeros(2), 0.5, 2000, force=True)


class Reference:
    """A fixed computation of the benchmark's own, in the mix of the
    program's work: a batch of inverse FFTs with a sign-change scan, small
    cosine and sine point evaluations in a Python loop, plain Python
    arithmetic, and a pass over two 16 MB arrays, too large for the cache
    like the small-ball draws and the n = 1024 grids.  It never calls the
    program, so a change to the program leaves its time alone; it only
    tracks the speed of the host."""

    def __init__(self):
        g = np.random.default_rng(20191226)
        self.spectrum = g.standard_normal((8, 2049)) + 1j * g.standard_normal((8, 2049))
        self.coef = g.standard_normal(64)
        self.k = np.arange(1.0, 65.0)[:, None]
        self.points = [g.uniform(0.0, 2.0 * math.pi, 80) for _ in range(15)]
        self.stream = g.standard_normal(2_000_000)
        self.buffer = np.empty_like(self.stream)
        self.times: list[float] = []
        for _ in range(5):  # warm the FFT plan cache
            self.work()

    def work(self) -> int:
        grid = np.fft.irfft(self.spectrum, axis=1)
        count = int(np.count_nonzero(np.signbit(grid[:, 1:]) != np.signbit(grid[:, :-1])))
        for ts in self.points:
            phase = self.k * ts
            value = self.coef @ np.cos(phase)
            slope = (self.coef * self.k[:, 0]) @ np.sin(phase)
            count += int(np.count_nonzero(value * slope > 0.0))
        acc = 0.0
        for i in range(1500):
            acc += (i % 7) * 0.5
        np.multiply(self.stream, 1.0000001, out=self.buffer)
        np.add(self.buffer, self.stream, out=self.buffer)
        return count + int(acc) + int(self.buffer[0] > 0.0)

    def time(self) -> None:
        t0 = time.perf_counter()
        self.work()
        self.times.append(time.perf_counter() - t0)

    def scales(self) -> list[float]:
        """Factor of each call, from the times taken around the calls."""
        return measure.speed_scales(self.times, REF_NOMINAL_S, REF_WINDOW)


class Results:
    """Timings, operation tallies and failed checks of one run.

    Each timing is kept raw, with the position of its call in the run
    (set in ``pos`` before the call), so it can be scaled afterwards."""

    def __init__(self):
        self.pos = 0
        #: metric -> [(seconds, work done or None, call position)]
        self.timings: dict[str, list[tuple]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.p2_records: dict[int, object] = {}
        self.gauss_hits = 0
        self.gauss_walks = 0

    def op(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def reject(self, message: str) -> None:
        self.check_failures.append(message)

    def timed(self, metric: str, seconds: float, amount: float | None = None) -> None:
        self.timings[metric].append((seconds, amount, self.pos))

    def merge(self, other: "Results") -> None:
        """Fold the tallies and checks of the run's other half into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.check_failures += other.check_failures
        self.gauss_hits += other.gauss_hits
        self.gauss_walks += other.gauss_walks


def _null_span(name, **attrs):
    return nullcontext()


def run_op(inp: Inputs, kind: str, k: int, res: Results, span=_null_span) -> None:
    """The k-th call of a kind, timed, then checked outside the timing."""
    if kind in MC_KINDS:
        n, trials, workers = MC_KINDS[kind]
        seed = inp.program_seed(kind, k)
        t0 = time.perf_counter()
        with span("op.mc", n=n, trials=trials, workers=workers):
            rec = mcstats.run_experiment(inp.law, n, trials=trials, seed=seed,
                                         parallelism=workers)
        dt = time.perf_counter() - t0
        res.timed("trials_per_s.p2" if workers > 1 else f"trials_per_s.n{n}", dt, trials)
        if workers > 1:
            res.p2_records[k] = (rec, trials / dt)
        check_mc(inp, rec, res)
    elif kind in SINGLE_KINDS:
        s = inp.sample(kind, k)
        with span("op.single", n=s.n):
            t0 = time.perf_counter()
            rr = rootcount.count_roots(s)
            t1 = time.perf_counter()
            with span("rootcount.count_kacrice"):
                kr = rootcount.count_kacrice(s, delta=KACRICE_DELTA)
            t2 = time.perf_counter()
        res.timed(f"count_roots_ms.n{s.n}", t1 - t0)
        res.timed(f"kacrice_ms.n{s.n}", t2 - t1)
        check_single(s, rr, kr, res)
    elif kind in SB_KINDS:
        dim = SB_KINDS[kind]
        t0 = time.perf_counter()
        est = smallball(inp, dim, inp.program_seed(kind, k), span)
        res.timed("smallball_walks_per_s", time.perf_counter() - t0, SB_WALKS)
        check_smallball(inp, dim, est, res)
    else:
        t0 = time.perf_counter()
        out = analytic_pass(inp, k, span)
        res.timed("analytic_ms", time.perf_counter() - t0)
        check_analytic(inp, out, res)


def smallball(inp: Inputs, dim: int, seed: int, span):
    with span("op.smallball", dim=dim):
        try:
            if dim == 2:
                return charprobe.small_ball_mc(SB_N, inp.sb_t, inp.law, inp.center[2],
                                               SB_DELTA[2], SB_WALKS, seed=seed)
            s, t = inp.sb_pair
            return charprobe.small_ball_mc(SB_N, t, inp.law, inp.center[4],
                                           SB_DELTA[4], SB_WALKS, seed=seed, s=s)
        except charprobe.FeasibilityError:
            return None


def analytic_pass(inp: Inputs, k: int, span) -> dict:
    out = {}
    with span("op.analytic"):
        with span("cganalytic.compute_cg"):
            out["cg"] = cganalytic.compute_cg()
        out["cn"] = []
        for alpha in CN_ALPHAS:
            with span("edgeworth.c_n_alpha"):
                out["cn"].append(edgeworth.c_n_alpha(CN_N, inp.cn_t, inp.law, alpha,
                                                     s=inp.cn_s))
        with span("edgeworth.gauss_expect_psi_H"):
            out["psi"] = edgeworth.gauss_expect_psi_H(PSI_ALPHA, delta=None)
        with span("diophantine.build_D"):
            out["D"] = diophantine.build_D(D_N, 1.0, 0.05)
        with span("charprobe.decay_scan"):
            out["decay"] = charprobe.decay_scan(DECAY_N, inp.decay_t, inp.law,
                                                seed=inp.program_seed("analytic", k))
    return out


# ---------------------------------------------------------------- checks

def check_mc(inp: Inputs, rec, res: Results) -> None:
    est = rec.estimate
    exact = rootcount.gaussian_expectation_exact(rec.n)
    if inp.law_name == "gaussian":
        ok = abs(est.mean - exact) <= MEAN_SE * est.se_mean
        rule = f"{MEAN_SE} se"
    else:
        # no exact formula; the mean matches the Gaussian one to ~0.3 % at
        # n >= 64, so a 1 % gap means the counts went wrong
        ok = abs(est.mean - exact) <= RADEMACHER_MEAN_REL * exact
        rule = f"{RADEMACHER_MEAN_REL:.0%}"
    ok = ok and rec.trials > 1 and est.variance > 0
    if not ok:
        res.reject(f"MC n={rec.n} seed={rec.seed}: mean {est.mean} vs exact "
                   f"{exact} (se {est.se_mean}), allowed {rule}")
        res.op(False, rec.trials)
        return
    res.op(True, rec.trials - rec.flagged_trial_count)
    res.op(False, rec.flagged_trial_count)


def check_single(s, rr, kr, res: Results) -> None:
    counts, uncertain = rootcount.count_batch(s.y[None], s.n, polyeval.FULL, 16 * s.n)
    ok = True
    if int(counts[0]) != rr.count:
        res.reject(f"sample n={s.n} trial={s.trial_index}: count_roots {rr.count} "
                   f"!= count_batch {int(counts[0])}")
        ok = False
    flagged = rr.uncertain or kr.flagged or bool(uncertain[0])
    if not flagged and abs(kr.value - rr.count) >= KACRICE_TOL:
        res.reject(f"sample n={s.n} trial={s.trial_index}: kacrice {kr.value} vs "
                   f"count {rr.count}, unflagged")
        ok = False
    res.op(ok and not flagged)


def check_smallball(inp: Inputs, dim: int, est, res: Results) -> None:
    if est is None:  # the program refused the inputs
        res.op(False)
        return
    ratio = est.probability / SB_DELTA[dim] ** dim
    ok = ratio <= P_OVER_D_MAX[dim]
    if not ok:
        res.reject(f"small ball R^{dim}: p/delta^{dim} = {ratio} > {P_OVER_D_MAX[dim]}")
    res.op(ok)
    if dim == 2 and inp.law_name == "gaussian":
        res.gauss_hits += est.hits
        res.gauss_walks += est.trials


def check_gaussian_oracle(inp: Inputs, res: Results) -> dict | None:
    """Pooled Gaussian small-ball estimate against the quadrature oracle.

    One pooled test a run keeps the chance of a false alarm at the 0.27 %
    of a single 3-se test."""
    if inp.law_name != "gaussian" or res.gauss_walks == 0:
        return None
    V = polyeval.covariance_V(SB_N, inp.sb_t).entries
    ref = charprobe.gaussian_ball_probability(V, inp.center[2], SB_DELTA[2])
    p = res.gauss_hits / res.gauss_walks
    se = math.sqrt(max(p * (1 - p), 1e-300) / res.gauss_walks)
    if abs(p - ref) > ORACLE_SE * se:
        res.reject(f"gaussian small ball {p} vs oracle {ref}: more than "
                   f"{ORACLE_SE} se ({se})")
    return {"mc": p, "oracle": ref, "se": se, "walks": res.gauss_walks}


def cn_closed_form(m4: float, alpha) -> float:
    """(m4 - 3) 3^(a+b) / (2 (2 (a+b) + 1)) for alpha = (i, i, j, j),
    a = i - 1, b = j - 3."""
    i, j = alpha[0], alpha[2]
    k = (i - 1) + (j - 3)
    return (m4 - 3.0) * 3.0 ** k / (2.0 * (2.0 * k + 1.0))


def check_analytic(inp: Inputs, out: dict, res: Results) -> None:
    problems = []
    cg = out["cg"].value
    if abs(cg - CG_TARGET) > CG_TOL:
        problems.append(f"cg {cg} not within {CG_TOL} of {CG_TARGET}")
    m4 = ensemble.moments(inp.law).m4
    for alpha, v in zip(CN_ALPHAS, out["cn"]):
        ref = cn_closed_form(m4, alpha)
        if abs(v - ref) > CN_TOL:
            problems.append(f"c_n{alpha} = {v} not within {CN_TOL} of {ref}")
    i, j = PSI_ALPHA[0], PSI_ALPHA[2]
    psi_ref = (-1.0) ** (i + j) / (3.0 * math.pi ** 2)
    if abs(out["psi"] - psi_ref) > PSI_TOL:
        problems.append(f"psi {out['psi']} not within {PSI_TOL} of {psi_ref}")
    D = out["D"]
    if not 0 < D.bad_pairs < D.total_pairs:
        problems.append(f"build_D bad pairs {D.bad_pairs} of {D.total_pairs}")
    rep = out["decay"]
    if not (rep.condition_ok and np.all(rep.worst_log_abs <= rep.bound_log + 1e-9)):
        problems.append("decay scan: |phi| above its exponent bound")
    for p in problems:
        res.reject(p)
    res.op(not problems)


# ------------------------------------------------------------ end to end

TIMING_METRICS = (
    ("trials_per_s.n64", "trials/s", "higher"),
    ("trials_per_s.n256", "trials/s", "higher"),
    ("trials_per_s.n1024", "trials/s", "higher"),
    ("trials_per_s.p2", "trials/s", "higher"),
    ("count_roots_ms.n64.p50", "ms", "lower"),
    ("count_roots_ms.n64.p90", "ms", "lower"),
    ("kacrice_ms.n64.p50", "ms", "lower"),
    ("kacrice_ms.n64.p90", "ms", "lower"),
    ("count_roots_ms.n256.p50", "ms", "lower"),
    ("kacrice_ms.n256.p50", "ms", "lower"),
    ("smallball_walks_per_s", "walks/s", "higher"),
    ("analytic_ms", "ms", "lower"),
)


def end_to_end(res: Results, scales=None) -> dict:
    """Every timing metric, each call's seconds times its factor in
    ``scales`` (raw when None): Monte Carlo throughputs and ``analytic_ms``
    as medians over calls (robust to a slow phase of the machine that
    catches a few calls), small-ball walks over the time of all its calls
    (its two ball dimensions run at different rates), latencies as
    percentiles with the samples beyond them."""
    def seconds(entry):
        sec, _, pos = entry
        return sec * (scales[pos] if scales is not None else 1.0)

    out = {}
    for name, unit, _ in TIMING_METRICS:
        base, _, stat = name.rpartition(".")
        if stat in ("p50", "p90"):
            values = [1e3 * seconds(e) for e in res.timings[base]]
            q = int(stat[1:]) / 100.0
            value, beyond = measure.nearest_rank(values, q)
            if stat != "p50":
                value = measure.tail_percentile(values, q)
            out[name] = {"value": value, "unit": unit, "samples": len(values),
                         "beyond": beyond,
                         "highest_tail_q": measure.highest_tail(len(values))}
        elif name == "smallball_walks_per_s":
            entries = res.timings[name]
            work, busy = sum(e[1] for e in entries), sum(map(seconds, entries))
            out[name] = {"value": work / busy, "unit": unit, "work": work,
                         "seconds": busy}
        else:
            entries = res.timings[name]
            if unit == "ms":
                values = [1e3 * seconds(e) for e in entries]
            else:
                values = [e[1] / seconds(e) for e in entries]
            out[name] = {"value": measure.median(values), "unit": unit,
                         "samples": len(values)}
    return out


# ------------------------------------------------------------- per layer

def _op_of(spans):
    """The enclosing ``op.*`` span of every span (or None)."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for s in spans:
        cur = s
        while cur is not None and not cur["name"].startswith("op."):
            cur = by_id.get(cur["parent"])
        out[s["id"]] = cur
    return out


def layer_metrics(spans, draw_us: dict) -> dict:
    """Per-layer (value, unit) from traced calls; ``draw_us`` maps n to the
    measured draw time per trial."""
    op_of = _op_of(spans)
    self_t = measure.self_times(spans)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    m = {}

    def under(name, op_name, **match):
        out = []
        for s in spans:
            op = op_of[s["id"]]
            if (s["name"] == name and op is not None and op["name"] == op_name
                    and all(op.get(k) == v for k, v in match.items())):
                out.append(s)
        return out

    def total(selected, times=dur):
        return sum(times[s["id"]] for s in selected)

    chunks = merge_t = 0.0
    for n, _, workers in MC_KINDS.values():
        if workers > 1:  # worker processes record no spans
            continue
        ops = [s for s in spans if s["name"] == "op.mc" and s["n"] == n
               and s["workers"] == 1]
        trials = sum(s["trials"] for s in ops)
        grid = total(under("polyeval.eval_grid_batch", "op.mc", n=n, workers=1))
        batch = under("rootcount.count_batch", "op.mc", n=n, workers=1)
        scan = total(batch, self_t)
        chunks += len(batch)
        merge_t += total(under("mcstats.merge", "op.mc", n=n, workers=1))
        m[f"polyeval.grid_us_per_trial.n{n}"] = (1e6 * grid / trials, "us")
        m[f"rootcount.scan_audit_us_per_trial.n{n}"] = (1e6 * scan / trials, "us")
        m[f"ensemble.draw_us_per_trial.n{n}"] = (draw_us[n], "us")
        M = 16 * n
        m[f"polyeval.fft_flops_per_trial.n{n}"] = (measure.fft_flops(M), "computed_flop")
        m[f"polyeval.grid_bytes_per_trial.n{n}"] = (measure.grid_bytes(M), "computed_B")
        if n == 64:
            wall = total(ops)
            draw = draw_us[n] * 1e-6 * trials
            m["mcstats.chunk_overhead_share"] = ((wall - draw - grid - scan) / wall,
                                                 "share")
    m["mcstats.merge_us_per_chunk"] = (1e6 * merge_t / chunks, "us")

    for n in SINGLE_KINDS.values():
        samples = sum(s["name"] == "op.single" and s["n"] == n for s in spans)
        pts = total(under("polyeval.eval_points", "op.single", n=n))
        m[f"polyeval.eval_points_ms_per_sample.n{n}"] = (1e3 * pts / samples, "ms")
        cr = under("rootcount.count_roots", "op.single", n=n)
        kr = under("rootcount.count_kacrice", "op.single", n=n)
        m[f"rootcount.count_roots_self_ms.n{n}"] = (1e3 * total(cr, self_t) / len(cr),
                                                    "ms")
        m[f"rootcount.kacrice_self_ms.n{n}"] = (1e3 * total(kr, self_t) / len(kr), "ms")

    for dim in SB_KINDS.values():
        calls = [s for s in spans if s["name"] == "op.smallball" and s["dim"] == dim]
        m[f"charprobe.small_ball_mc_s.r{dim}"] = (total(calls) / len(calls), "s")
    for name, key in (("cganalytic.compute_cg", "cganalytic.compute_cg_ms"),
                      ("edgeworth.c_n_alpha", "edgeworth.c_n_alpha_ms"),
                      ("edgeworth.gauss_expect_psi_H", "edgeworth.psi_H_ms"),
                      ("diophantine.build_D", "diophantine.build_D_ms"),
                      ("charprobe.decay_scan", "charprobe.decay_scan_ms")):
        calls = [s for s in spans if s["name"] == name]
        m[key] = (1e3 * total(calls) / len(calls), "ms")
    return m


def draw_us_per_trial(inp: Inputs, k: int) -> dict:
    """Draw time per trial, by ``ensemble.sample`` on the (seed, trial)
    keys of the k-th Monte Carlo call at each n."""
    out = {}
    for kind, (n, trials, workers) in MC_KINDS.items():
        if workers > 1:
            continue
        seed = inp.program_seed(kind, k)
        t0 = time.perf_counter()
        for trial in range(trials):
            ensemble.sample(inp.law, n, seed=seed, trial_index=trial)
        out[n] = 1e6 * (time.perf_counter() - t0) / trials
    return out


def parallel_check(inp: Inputs, res: Results) -> tuple[float, bool]:
    """Parallelism-1 rerun of the first parallel call in ``res``:
    (efficiency, canonical records byte-identical)."""
    k = min(res.p2_records)
    p2_rec, p2_rate = res.p2_records[k]
    n, trials, workers = MC_KINDS["p2"]
    t0 = time.perf_counter()
    p1_rec = mcstats.run_experiment(inp.law, n, trials=trials,
                                    seed=inp.program_seed("p2", k))
    p1_rate = trials / (time.perf_counter() - t0)
    same = (json.dumps(p1_rec.canonical_dict(), sort_keys=True)
            == json.dumps(p2_rec.canonical_dict(), sort_keys=True))
    return p2_rate / (workers * p1_rate), same


def collect_counters(inp: Inputs, tracer) -> dict:
    """Deterministic counts over the first call of each parallelism-1 Monte
    Carlo kind, the first four n = 64 samples and the first n = 256 sample,
    and one cg quadrature, with the layer spans installed on ``tracer``."""
    out = {}
    for kind, (n, trials, workers) in MC_KINDS.items():
        if workers > 1:
            continue
        before = len(tracer.spans)
        rec = mcstats.run_experiment(inp.law, n, trials=trials,
                                     seed=inp.program_seed(kind, 0))
        out[f"rootcount.roots_per_trial.n{n}"] = rec.estimate.mean
        out[f"rootcount.flagged_per_1k_trials.n{n}"] = (
            1e3 * rec.flagged_trial_count / rec.trials)
        out[f"mcstats.chunks.n{n}"] = sum(
            s["name"] == "rootcount.count_batch" for s in tracer.spans[before:])
    for kind, n in SINGLE_KINDS.items():
        count = 4 if n == 64 else 1
        points = grids = 0
        for k in range(count):
            s = inp.sample(kind, k)
            before = len(tracer.spans)
            rootcount.count_roots(s)
            with tracer.span("rootcount.count_kacrice") as kspan:
                rootcount.count_kacrice(s, delta=KACRICE_DELTA)
            new = tracer.spans[before:]
            points += sum(x.get("points", 0) for x in new)
            grids += sum(x["name"] == "polyeval.eval_grid" and x["id"] > kspan["id"]
                         for x in new)
        out[f"polyeval.points_per_sample.n{n}"] = points / count
        if n == 64:
            out["polyeval.grids_per_kacrice"] = grids / count
    out["cganalytic.evaluations"] = cganalytic.compute_cg().evaluations
    return out
