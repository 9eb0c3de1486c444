"""The benchmark's tracer wraps program attributes by name; they must exist."""

import importlib.util
import time
from pathlib import Path

import trigroots
from trigroots import mcstats, rootcount
from trigroots.ensemble import gaussian, sample
from trigroots.polyeval import grid_size, pass_rows

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_install_and_record():
    tracing = _load_tracing()
    tracer = tracing.Tracer("gaussian", "hooks")
    tracing.install_layer_spans(tracer, trigroots)
    try:
        s = sample(gaussian(), 16, seed=1)
        rootcount.count_roots(s)
        rootcount.count_kacrice(s, delta=1e-6)
        mcstats.run_experiment(gaussian(), 16, trials=16, seed=2)
    finally:
        tracer.restore()
    names = {span["name"] for span in tracer.spans}
    assert {"polyeval.eval_grid", "polyeval.eval_points", "polyeval.eval_grid_batch",
            "rootcount.count_roots", "rootcount.count_batch",
            "mcstats.merge"} <= names
    assert mcstats.MomentAccumulator.__name__ == "MomentAccumulator"
    assert not hasattr(rootcount.count_roots, "__wrapped__")


def test_grid_spans_are_the_passes():
    """Each ``count_batch`` call reaches the grid once a pass, through the
    patched module global, so the traced grid layer counts every pass."""
    tracing = _load_tracing()
    tracer = tracing.Tracer("gaussian", "passes")
    tracing.install_layer_spans(tracer, trigroots)
    try:
        mcstats.run_experiment(gaussian(), 1024, trials=37, seed=3)
    finally:
        tracer.restore()
    batches = [s["id"] for s in tracer.spans if s["name"] == "rootcount.count_batch"]
    grids = [s["parent"] for s in tracer.spans if s["name"] == "polyeval.eval_grid_batch"]
    assert len(batches) == 1
    passes = -(-37 // pass_rows(1024, grid_size(1024)))
    assert passes == 3 and grids == batches * passes


def test_audit_follows_the_last_pass(monkeypatch):
    """One audit a ``count_batch`` call, after its last grid pass and inside
    its span, so the traced scan-and-audit self time counts the audit."""
    tracing = _load_tracing()
    tracer = tracing.Tracer("gaussian", "audit")
    tracing.install_layer_spans(tracer, trigroots)
    audits = []
    audit = rootcount._audit
    monkeypatch.setattr(rootcount, "_audit",
                        lambda *a: audits.append(time.perf_counter()) or audit(*a))
    try:
        mcstats.run_experiment(gaussian(), 1024, trials=37, seed=3)
    finally:
        tracer.restore()
    (batch,) = [s for s in tracer.spans if s["name"] == "rootcount.count_batch"]
    grids = [s for s in tracer.spans if s["name"] == "polyeval.eval_grid_batch"]
    assert len(grids) == 3 and len(audits) == 1
    assert max(s["end"] for s in grids) < audits[0] < batch["end"]
