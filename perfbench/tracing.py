"""In-memory spans around calls into the program's layers.

Spans are recorded from the benchmark's side only: the tracer wraps the
module attributes through which one layer calls the next (for example
``rootcount.eval_points``) and restores them afterwards.  The program's
source is never edited.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans (name, start, end, parent, workload, run id)."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "run_id": self.run_id, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recorded as a span; ``attrs(args, kwargs)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)
        return traced

    def patch(self, module, attr: str, name: str, attrs=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, attrs))

    def patch_value(self, module, attr: str, value):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install_layer_spans(tracer: Tracer, trigroots) -> None:
    """Wrap the names each layer uses to call the next one."""
    rootcount, mcstats = trigroots.rootcount, trigroots.mcstats

    def points(args, kwargs):
        return {"points": int(args[1].size)}

    tracer.patch(rootcount, "eval_points", "polyeval.eval_points", points)
    tracer.patch(rootcount, "eval_grid", "polyeval.eval_grid")
    tracer.patch(rootcount, "eval_grid_batch", "polyeval.eval_grid_batch")
    # count_kacrice reaches count_roots through the module global
    tracer.patch(rootcount, "count_roots", "rootcount.count_roots")
    tracer.patch(mcstats, "count_batch", "rootcount.count_batch")

    base = mcstats.MomentAccumulator

    class TracedAccumulator(base):
        @classmethod
        def from_values(cls, x):
            with tracer.span("mcstats.merge"):
                return super().from_values(x)

        def merge(self, other):
            with tracer.span("mcstats.merge"):
                return super().merge(other)

    tracer.patch_value(mcstats, "MomentAccumulator", TracedAccumulator)
