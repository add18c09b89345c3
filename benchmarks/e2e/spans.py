"""Host-wall spans around calls into the program's layers, recorded from outside.

The traced run wraps public functions of :mod:`repro` in the benchmark
process only; nothing under ``src/`` changes.  Every wrapped call
becomes a :class:`Span` (name, start, end, parent span, request id), so
the per-layer self times come from the same call sites a profiler would
attribute, without a profiler's per-call cost on un-wrapped code.

A span's *self time* is its duration minus the durations of its direct
children.  Calls into the service's data plane (``recommend`` and
``rate``) open a request and every span they cause carries its id.
Spans stay in memory and :meth:`SpanRecorder.to_chrome` renders them
as chrome-trace JSON (``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["PATCHES", "Span", "SpanRecorder"]

#: ``(module, attribute, span name, opens a request)``.  Module-level
#: functions are patched where the caller looks them up (the name bound
#: in the calling module), methods on their class.
PATCHES = (
    ("repro.core.als_su", "ScaleUpALS.fit", "train.fit", False),
    ("repro.core.als_su", "ScaleUpALS.build_update_graph", "taskgraph.build", False),
    ("repro.core.als_su", "grid_partition", "sparse.partition", False),
    ("repro.core.als_su", "execute_graph", "schedule.execute", False),
    ("repro.core.als_mo", "execute_graph", "schedule.execute", False),
    ("repro.core.als_su", "compute_hermitians", "hermitian.compute", False),
    ("repro.core.als_mo", "compute_hermitians", "hermitian.compute", False),
    ("repro.serving.foldin", "compute_hermitians", "hermitian.compute", False),
    ("repro.core.als_su", "batch_solve", "hermitian.solve", False),
    ("repro.core.als_mo", "batch_solve", "hermitian.solve", False),
    ("repro.serving.foldin", "batch_solve", "hermitian.solve", False),
    ("repro.core.als_su", "numeric_reduce", "comm.reduce", False),
    ("repro.core.solver.session", "rmse", "session.rmse", False),
    ("repro.serving.simulator", "RequestSimulator.run", "simulator.run", False),
    ("repro.serving.store", "FactorStore.recommend_batch", "store.recommend_batch", False),
    ("repro.serving.service.facade", "RecommenderService.recommend", "service.recommend", True),
    ("repro.serving.service.facade", "RecommenderService.rate", "service.rate", True),
    ("repro.serving.service.facade", "RecommenderService.fold_in", "service.fold_in", False),
    ("repro.serving.service.facade", "RecommenderService.refresh", "service.refresh", False),
    ("repro.serving.service.facade", "RecommenderService.simulate", "service.simulate", False),
    ("repro.serving.service.facade", "RecommenderService.plan_rollout", "lifecycle.plan_rollout", False),
    ("repro.serving.service.facade", "run_refresh_session", "lifecycle.refresh_session", False),
    ("repro.serving.lifecycle.registry", "SnapshotRegistry.publish", "lifecycle.publish", False),
)


@dataclass
class Span:
    """One wrapped call: host-wall start/end, parent index, request id (-1: none)."""

    name: str
    start: float
    end: float
    parent: int
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Installs the :data:`PATCHES` wrappers and collects their spans.

    Use as a context manager: the originals are restored on exit, even
    when the traced code raises.  Single-threaded by design, like the
    benchmark process.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._requests = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        for module, path, name, opens_request in PATCHES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            # Methods are read from the class dict so the wrapper binds
            # like the plain function it replaces.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, opens_request))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, opens_request: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if opens_request:
                self._requests += 1
                request = self._requests
            else:
                request = self.spans[parent].request if parent >= 0 else -1
            span = Span(name, time.perf_counter(), 0.0, parent, request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    # ------------------------------------------------------------------ #
    def self_times(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        table: dict[str, dict] = {}
        for span, children in zip(self.spans, covered):
            row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - children
        return table

    def percentile_us(self, name: str, q: float) -> float:
        """``q``-th percentile of one span name's durations in µs (0 if never called)."""
        durations = [span.duration for span in self.spans if span.name == name]
        return float(np.percentile(durations, q)) * 1e6 if durations else 0.0

    def to_chrome(self, table: dict) -> dict:
        """Chrome-trace JSON with the self-time table under ``otherData``."""
        origin = self.spans[0].start if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            args = {"id": index, "parent": span.parent}
            if span.request >= 0:
                args["request"] = span.request
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"self_time": table}}
