"""Host-clock spans around the calls into each layer of the package.

The traced run wraps public functions and methods at the module
attributes their callers look them up from, records one span per call
(name, start, end, parent span, op id), keeps the spans in memory and
restores every original on :meth:`Tracer.uninstall`.  Nothing under
``src/`` knows it is being traced.

A span's self time is its duration minus the durations of its direct
children; the ``op`` span the benchmark opens around each op therefore
ends up holding the host time no layer span claimed
(``op.unattributed_host_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute, span name): functions patched where callers
#: import them, so every call site of the measured paths is covered
FUNCTIONS = [
    ("repro.core.pipeline", "preprocess", "preprocess"),
    ("repro.core.refactorize", "preprocess", "preprocess"),
    ("repro.core.incremental", "preprocess", "preprocess"),
    ("repro.serve.scheduler", "preprocess", "preprocess"),
    ("repro.core.pipeline", "outofcore_symbolic", "symbolic"),
    ("repro.core.refactorize", "outofcore_symbolic", "symbolic"),
    ("repro.serve.scheduler", "incremental_analyze_pre", "symbolic.delta"),
    ("repro.core.pipeline", "build_dependency_graph", "graph.depgraph"),
    ("repro.core.refactorize", "build_dependency_graph", "graph.depgraph"),
    ("repro.core.incremental", "build_dependency_graph", "graph.depgraph"),
    ("repro.core.pipeline", "levelize_gpu_dynamic", "graph.levelize"),
    ("repro.core.refactorize", "levelize_gpu_dynamic", "graph.levelize"),
    ("repro.numeric.supernodal", "supernodal_plan_for", "graph.panelize"),
    ("repro.core.pipeline", "numeric_factorize_gpu", "numeric"),
    ("repro.core.refactorize", "numeric_factorize_gpu", "numeric"),
    ("repro.core.pipeline", "lu_solve_permuted", "trisolve"),
    ("repro.core.refactorize", "lu_solve_permuted", "trisolve"),
    ("repro.serve.scheduler", "lu_solve_permuted", "trisolve"),
    ("repro.serve.scheduler", "analyze", "core.analyze"),
]

#: (module, class, method, span name)
METHODS = [
    ("repro.core.numeric_gpu", "NumericResult", "factors", "numeric.extract"),
    ("repro.core.refactorize", "ReusableAnalysis", "refactorize",
     "core.refactorize"),
    ("repro.serve.service", "SolverService", "flush", "serve.flush"),
    ("repro.fleet.fleet", "Fleet", "flush", "fleet.flush"),
    ("repro.fleet.l2cache", "L2Cache", "fetch", "fleet.l2_fetch"),
    ("repro.fleet.l2cache", "L2Cache", "fetch_family", "fleet.l2_fetch"),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        #: id -> weak reference of every level schedule numeric has seen
        #: (schedules are unhashable dataclasses)
        self._schedules: dict[int, weakref.ref] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def op(self):
        """Span around one op of the benchmark (a new op id)."""
        self._op += 1
        return self.span("op")

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _timed(self, name: str):
        def make(fn):
            def call(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return call
        return make

    def _numeric(self, fn):
        # the first call on a level schedule builds the numeric plan
        def call(gpu, filled, schedule, *args, **kwargs):
            key = id(schedule)
            seen = self._schedules.get(key)
            first = seen is None or seen() is not schedule
            if first:
                self._schedules[key] = weakref.ref(
                    schedule, lambda _, k=key: self._schedules.pop(k, None)
                )
            with self.span("numeric.first" if first else "numeric.repeat"):
                return fn(gpu, filled, schedule, *args, **kwargs)
        return call

    def _symbolic(self, fn):
        def call(*args, **kwargs):
            with self.span("symbolic"):
                result = fn(*args, **kwargs)
            self.counts["symbolic.iterations"] += int(result.iterations)
            return result
        return call

    def _charge(self, fn):
        def call(*args, **kwargs):
            self.counts["gpusim.charge_calls"] += 1
            return fn(*args, **kwargs)
        return call

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            owner = importlib.import_module(module)
            if name == "numeric":
                wrapper = self._numeric
            elif name == "symbolic":
                wrapper = self._symbolic
            else:
                wrapper = self._timed(name)
            self._patch(owner, attr, wrapper)
        for module, cls, method, name in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, method, self._timed(name))
        ledger = importlib.import_module("repro.gpusim.ledger").TimeLedger
        self._patch(ledger, "charge", self._charge)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - children[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
