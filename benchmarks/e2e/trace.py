"""Span recording from outside the program.

The benchmark may not edit ``src/repro``, so a layer boundary is the call
into one of the layer's public callables.  ``traced(recorder)`` replaces each
callable in ``targets()`` (a class or module attribute) with a wrapper that
records one span per call -- name, start, end, parent span, and the
benchmark's own request index -- and puts the originals back on exit.  Spans
stay in memory; ``write_jsonl`` dumps them when the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover, so the per-layer table adds up to the traced request time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple


def targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped public callable."""
    import repro.query.planner as planner
    from repro.bitmap.index import RegionBitmapIndex
    from repro.ingest.stream import IngestStream
    from repro.obs.monitor import ServiceMonitor
    from repro.pdc.server import PDCServer
    from repro.pdc.system import PDCSystem
    from repro.query.executor import QueryEngine
    from repro.query.scheduler import QueryScheduler, SelectionCache
    from repro.query.selection import Selection
    from repro.service.frontend import QueryService
    from repro.sorting.reorganize import SortedReplica

    monitor_hooks = (
        "on_submit", "on_admit", "on_reject", "on_tick", "on_dispatch",
        "on_shed", "on_complete", "on_window", "on_region_read",
        "on_ingest_epoch",
    )
    return [
        (QueryService, "submit", "service.submit"),
        (QueryService, "submit_write", "service.submit"),
        (QueryService, "drain", "service.drain"),
        *[(ServiceMonitor, hook, "obs.monitor") for hook in monitor_hooks],
        (QueryScheduler, "execute_window", "scheduler.execute_window"),
        (SelectionCache, "fetch", "scheduler.selection_cache"),
        (SelectionCache, "put", "scheduler.selection_cache"),
        (SelectionCache, "invalidate_object", "scheduler.selection_cache"),
        (QueryEngine, "execute_batch", "executor.execute_batch"),
        (QueryEngine, "execute", "executor.execute"),
        (QueryEngine, "get_data", "executor.get_data"),
        (planner, "choose_strategy", "planner.choose_strategy"),
        (RegionBitmapIndex, "query_cost", "bitmap.query_cost"),
        (SortedReplica, "search_range", "sorting.search_range"),
        (Selection, "intersect", "selection.setops"),
        (Selection, "union", "selection.setops"),
        (Selection, "difference", "selection.setops"),
        (Selection, "from_unsorted", "selection.setops"),
        (PDCServer, "ensure_region", "server.ensure_region"),
        (PDCServer, "preload_region", "server.ensure_region"),
        (IngestStream, "append", "ingest.write"),
        (IngestStream, "update", "ingest.write"),
        (IngestStream, "flush", "ingest.flush"),
        (PDCSystem, "update_object_region", "system.write_maintenance"),
        (PDCSystem, "append_to_object", "system.write_maintenance"),
    ]


def span_names() -> Tuple[str, ...]:
    """Span names in table order (one ``self_ms_per_request`` and one
    ``calls_per_request`` metric each)."""
    return tuple(dict.fromkeys(name for _, _, name in targets()))


class SpanRecorder:
    """In-memory spans as parallel lists (index = span id)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        #: The benchmark sets this to its request index before each request.
        self.request_id = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __len__(self) -> int:
        return len(self.names)

    # ------------------------------------------------------------ analysis
    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover."""
        children: Dict[int, List[int]] = {}
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        out = []
        for idx in range(len(self.names)):
            start, end = self.starts[idx], self.ends[idx]
            covered = 0.0
            reach = start
            for child in sorted(children.get(idx, ()), key=self.starts.__getitem__):
                c0 = max(self.starts[child], reach)
                c1 = min(self.ends[child], end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((end - start) - covered)
        return out

    def by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, summed self seconds, summed duration seconds)."""
        table: Dict[str, List[float]] = {}
        for name, start, end, self_s in zip(
            self.names, self.starts, self.ends, self.self_times()
        ):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self_s
            row[2] += end - start
        return {k: (int(v[0]), v[1], v[2]) for k, v in table.items()}

    def top_level_seconds(self) -> float:
        """Summed duration of spans that have no parent."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, request) in enumerate(zip(
                self.names, self.starts, self.ends, self.parents, self.requests
            )):
                fh.write(json.dumps({
                    "id": idx, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name in targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(recorder.wrap(name, original.__func__))
            else:
                wrapped = recorder.wrap(name, original)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
