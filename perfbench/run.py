"""Benchmark of the trigroots root-counting laboratory.

    python3 perfbench/run.py --workload gaussian --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The run measures set-up time in fresh processes, then
runs an interleaved schedule of every operation (see ``workloads.py``) on
inputs made from the seed, checks every output, and prints a report followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Every time is
scaled to a nominal host speed by a reference computation timed next to
each call; the report and the record also give the raw times.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` half the calls run
with spans around each layer call and the metrics are per-layer ones plus
the tracing overhead.  The exit code is 1 when an output check fails and 2
when the program cannot be found.
"""

from __future__ import annotations

import os

# One BLAS thread a process: the parallel workload's two workers would
# otherwise oversubscribe two CPUs, and threaded BLAS shifts single-sample
# latencies.  Must precede the numpy import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import trigroots from this checkout's src, never from elsewhere."""
    if not (SRC / "trigroots" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'trigroots'}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import trigroots
    except ImportError as exc:
        fail(f"cannot import trigroots from {SRC}: {exc}")
    if Path(trigroots.__file__).resolve().parent != (SRC / "trigroots").resolve():
        fail(f"trigroots came from {trigroots.__file__}, not {SRC}")
    return trigroots


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("gaussian", "rademacher"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and warm up only (used to time set-up)")
    p.add_argument("--counters-only", action="store_true",
                   help="print the deterministic counters as JSON and exit")
    return p.parse_args(argv)


def blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    try:
        # the ceiling keeps git from reporting a repository above the checkout
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "trigroots").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed,
        "git_revision": rev or None, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "blas_threads_env": BLAS_THREADS, "blas_threads": blas_threads(),
    }


def measure_setup(args, ref) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that start, import and warm up: raw,
    and scaled by the median of the reference times taken between them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    ref.time()
    for _ in range(SETUP_REPEATS):
        times.append(wall_time(cmd))
        ref.time()
    scales = ref.scales()
    ref.times.clear()
    return times, [t * f for t, f in zip(times, scales)]


def wall_time(cmd) -> float:
    """Wall time of a child process until it has exited.

    A wait with a timeout polls in steps of up to 50 ms, which would round
    the time up to the next step; a plain wait does not, and a watchdog
    thread kills a child that hangs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def child_counters(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--counters-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    trigroots = import_program()
    import measure
    import tracing
    import workloads as wl

    inp = wl.Inputs(args.workload, args.seed)
    wl.warm_up(inp.law)
    if args.setup_probe:
        return 0
    if args.counters_only:
        print(json.dumps(counters(inp, trigroots), sort_keys=True))
        return 0

    env = environment(args.seed, args.workload)
    ref = wl.Reference()
    setup_raw, setup_scaled = measure_setup(args, ref)
    plan = wl.schedule(args.seconds)
    res = wl.Results()
    report: dict = {"env": env, "setup_s_raw": setup_raw, "setup_s_scaled": setup_scaled,
                    "calls": len(plan), "reference_nominal_s": wl.REF_NOMINAL_S}
    t_start = time.perf_counter()

    if args.trace == 0:
        for pos, (kind, k) in enumerate(plan):
            ref.time()
            res.pos = pos
            wl.run_op(inp, kind, k, res)
        ref.time()
        scales = ref.scales()
        metrics = wl.end_to_end(res, scales)
        metrics["setup_s"] = {"value": measure.median(setup_scaled), "unit": "s",
                              "samples": len(setup_scaled),
                              "raw": measure.median(setup_raw)}
        for name, m in wl.end_to_end(res).items():
            metrics[name]["raw"] = m["value"]
    else:
        # odd calls of each kind are traced, even ones not, so slow phases
        # of the machine hit both halves alike
        traced_res = wl.Results()
        tracer = tracing.Tracer(args.workload, f"{args.workload}-{args.seed}")
        for pos, (kind, k) in enumerate(plan):
            ref.time()
            if k % 2 == 0:
                res.pos = pos
                wl.run_op(inp, kind, k, res)
                continue
            traced_res.pos = pos
            tracing.install_layer_spans(tracer, trigroots)
            try:
                wl.run_op(inp, kind, k, traced_res, tracer.span)
            finally:
                tracer.restore()
        ref.time()
        scales = ref.scales()
        metrics = trace_metrics(args, inp, res, traced_res, tracer, trigroots, report,
                                scales)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json")
        res.merge(traced_res)
    report["reference_s"] = ref.times
    report["scales"] = scales

    oracle = wl.check_gaussian_oracle(inp, res)
    if args.trace == 0:
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}
    report.update(measured_s=time.perf_counter() - t_start, oracle=oracle,
                  check_failures=res.check_failures, metrics=metrics)

    print_report(args, env, res, metrics)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    correct = not res.check_failures
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def counters(inp, trigroots) -> dict:
    """The deterministic counters, with the layer spans installed."""
    import tracing
    import workloads as wl

    tracer = tracing.Tracer(inp.law_name, "counters")
    tracing.install_layer_spans(tracer, trigroots)
    try:
        return wl.collect_counters(inp, tracer)
    finally:
        tracer.restore()


def trace_metrics(args, inp, res, traced_res, tracer, trigroots, report, scales) -> dict:
    """Per-layer metrics, the tracing overhead and the traced-only checks."""
    import workloads as wl

    draw_us = wl.draw_us_per_trial(inp, 1)
    layer = wl.layer_metrics(tracer.spans, draw_us)
    efficiency, identical = wl.parallel_check(inp, res)
    layer["mcstats.parallel_efficiency"] = (efficiency, "share")
    if not identical:
        res.reject("parallel record differs from the parallelism-1 record")

    # counters: once here, once in a fresh process; they must agree exactly
    here, again = counters(inp, trigroots), child_counters(args)
    if json.dumps(here, sort_keys=True) != json.dumps(again, sort_keys=True):
        res.reject(f"counters differ between two runs: {here} vs {again}")
    report["counters"] = here
    for name, value in here.items():
        if not name.startswith("mcstats.chunks"):
            layer[name] = (value, "count")

    untraced, traced = wl.end_to_end(res, scales), wl.end_to_end(traced_res, scales)
    for name, _, better in wl.TIMING_METRICS:
        u, t = untraced[name]["value"], traced[name]["value"]
        slower = (u - t) / u if better == "higher" else (t - u) / u
        layer[f"trace.overhead_pct.{name}"] = (100.0 * slower, "%")
    report["untraced"], report["traced"] = untraced, traced
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}


def print_report(args, env, res, metrics) -> None:
    print(f"# trigroots benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        extra = ""
        if "samples" in m:
            extra = f"  (samples={m['samples']}"
            if "beyond" in m:
                extra += f", beyond={m['beyond']}"
            extra += ")"
        if "raw" in m:
            extra += f"  raw {m['raw']:.6g}"
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"ops failed {res.failed} of {res.attempted} attempted")
    for msg in res.check_failures:
        print(f"CHECK FAILED: {msg}")


if __name__ == "__main__":
    sys.exit(main())
