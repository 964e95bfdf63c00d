"""Per-query distributed tracing over the simulated clocks.

A :class:`Tracer` records hierarchical :class:`Span` s.  Every span is
bound to one :class:`~repro.storage.costmodel.SimClock` — its start/end
instants are read from that clock, so a trace is a faithful timeline of
the cost model: a span over a server's PFS read covers exactly the
simulated seconds the read charged.  Tracks (Chrome "threads") are the
clock names (``client``, ``server0`` ...), which makes a Perfetto load of
the export look like the per-rank timelines the paper's figures discuss.

Parenting follows *call order*, not clocks: a per-server read span opened
while a client-side conjunct span is active becomes its child even though
the two live on different tracks.  Within one track spans nest properly in
time (clocks only move forward), which is what the Chrome ``X`` events
rely on.

The default tracer everywhere is :data:`NOOP_TRACER`; it records nothing,
charges nothing, and costs two attribute reads per instrumentation site.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import PDCError
from ..storage.costmodel import SimClock

__all__ = ["Span", "Tracer", "NoopTracer", "NOOP_TRACER"]


@dataclass
class Span:
    """One traced operation on one simulated clock."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    #: Clock name this span is timed against (Chrome tid).
    track: str
    start_s: float
    end_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Simulated seconds covered (0.0 while still open)."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0


class _SpanHandle:
    """Context manager for one open span."""

    __slots__ = ("_tracer", "span", "_clock")

    def __init__(self, tracer: "Tracer", span: Span, clock: Optional[SimClock]) -> None:
        self._tracer = tracer
        self.span = span
        self._clock = clock

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes to the span (visible in both exports)."""
        self.span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The span ends at its clock's time now (an unclocked one at its start).
        clock = self._clock
        self._tracer.close_at(self.span, clock.now if clock is not None else self.span.start_s)


class _NoopSpan:
    """Stateless stand-in for a span when tracing is disabled."""

    __slots__ = ()
    span = None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every operation is a no-op.

    ``enabled`` is False so hot loops can skip building span attributes
    entirely.  Safe to share across systems and threads (stateless).
    :meth:`Tracer.open_at` / :meth:`Tracer.close_at` have no no-op twin:
    their one caller (``PDCServer.touch_share``) tests ``enabled`` first.
    """

    enabled = False

    def span(self, name: str, clock: Optional[SimClock] = None,
             category: str = "query", **attrs: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def instant(self, name: str, clock: Optional[SimClock] = None,
                category: str = "event", **attrs: Any) -> None:
        return None


#: The process-wide disabled tracer (the default on every PDCSystem).
NOOP_TRACER = NoopTracer()


class Tracer:
    """Recording tracer: collects spans and instant events.

    One tracer instance is scoped however the caller likes — typically one
    per captured workload.  It never charges simulated time; it only
    *reads* ``clock.now`` at span open/close.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Span] = []
        self._next_id = 1
        #: Call-order stack of open spans (logical parenting).
        self._open: List[Span] = []

    # ------------------------------------------------------------- recording
    def span(self, name: str, clock: Optional[SimClock] = None,
             category: str = "query", **attrs: Any) -> _SpanHandle:
        """Open a span timed on ``clock`` (or the parent's clock time when
        omitted); use as a context manager."""
        start = clock.now if clock is not None else (
            self._open[-1].start_s if self._open else 0.0
        )
        track = clock.name if clock is not None else (
            self._open[-1].track if self._open else "client"
        )
        return _SpanHandle(self, self.open_at(start, name, track, category, **attrs), clock)

    def open_at(self, at: float, name: str, track: str,
                category: str = "query", **attrs: Any) -> Span:
        """Open a span that began at simulated time ``at`` on ``track`` (a
        clock's name) — a charge already made, replayed from its stamp; end
        it with :meth:`close_at`."""
        sp = Span(self._next_id, self._open[-1].span_id if self._open else None,
                  name, category, track, at, attrs=attrs)
        self._next_id += 1
        self.spans.append(sp)
        self._open.append(sp)
        return sp

    def close_at(self, span: Span, at: float) -> None:
        """End ``span`` at simulated time ``at``."""
        span.end_s = at
        # Close out-of-order defensively (exceptions unwinding).
        if self._open and self._open[-1] is span:
            self._open.pop()
        elif span in self._open:
            self._open.remove(span)

    def instant(self, name: str, clock: Optional[SimClock] = None,
                category: str = "event", at: Optional[float] = None,
                **attrs: Any) -> None:
        """Record a point-in-time event at ``clock``'s time, or at ``at`` (a
        replayed charge's stamp) on ``clock``'s track."""
        if at is None:
            at = clock.now if clock is not None else 0.0
        self.events.append(
            Span(
                span_id=self._next_id,
                parent_id=self._open[-1].span_id if self._open else None,
                name=name,
                category=category,
                track=clock.name if clock is not None else "client",
                start_s=at,
                end_s=at,
                attrs=dict(attrs),
            )
        )
        self._next_id += 1

    # ------------------------------------------------------------- inspection
    def subtree(self, root: Span) -> List[Span]:
        """``root`` plus all descendants, in recording order."""
        keep = {root.span_id}
        out = [root]
        for s in self.spans:
            if s.parent_id in keep:
                keep.add(s.span_id)
                out.append(s)
        return out

    def summary(self, root: Optional[Span] = None) -> Dict[str, float]:
        """Simulated seconds per span category (over ``root``'s subtree, or
        everything).  Categories overlap hierarchically — a ``query`` span
        covers its ``storage_read`` children — so values are per-category
        totals, not a partition.  Within one category there is no double
        counting: a span nested (directly or transitively) under a
        same-category span is already covered by that ancestor's duration
        and contributes nothing of its own."""
        spans = self.subtree(root) if root is not None else self.spans
        by_id = {s.span_id: s for s in spans}
        out: Dict[str, float] = {}
        for s in spans:
            if s.end_s is None:
                continue
            parent = by_id.get(s.parent_id) if s.parent_id is not None else None
            shadowed = False
            while parent is not None:
                if parent.category == s.category:
                    shadowed = True
                    break
                parent = (
                    by_id.get(parent.parent_id)
                    if parent.parent_id is not None else None
                )
            if not shadowed:
                out[s.category] = out.get(s.category, 0.0) + s.duration_s
        return out

    # ---------------------------------------------------------------- export
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON object (Perfetto/``chrome://tracing``
        compatible): complete ``X`` events, one tid per simulated clock."""
        tids: Dict[str, int] = {}

        def tid_of(track: str) -> int:
            if track not in tids:
                tids[track] = len(tids)
            return tids[track]

        events: List[Dict[str, Any]] = []
        for s in self.spans:
            if s.end_s is None:
                continue
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": s.start_s * 1e6,
                    "dur": max(0.0, s.duration_s) * 1e6,
                    "pid": 0,
                    "tid": tid_of(s.track),
                    "args": dict(s.attrs),
                }
            )
        for e in self.events:
            events.append(
                {
                    "name": e.name,
                    "cat": e.category,
                    "ph": "i",
                    "s": "t",
                    "ts": e.start_s * 1e6,
                    "pid": 0,
                    "tid": tid_of(e.track),
                    "args": dict(e.attrs),
                }
            )
        meta: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "args": {"name": "pdc-sim"},
            }
        ]
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_chrome_trace(), f)

    def to_jsonl_records(self) -> List[Dict[str, Any]]:
        """Structured-event log records (one dict per span/event)."""
        records: List[Dict[str, Any]] = []
        for s in self.spans:
            records.append(
                {
                    "type": "span",
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "cat": s.category,
                    "track": s.track,
                    "t0": s.start_s,
                    "t1": s.end_s,
                    "attrs": dict(s.attrs),
                }
            )
        for e in self.events:
            records.append(
                {
                    "type": "event",
                    "id": e.span_id,
                    "parent": e.parent_id,
                    "name": e.name,
                    "cat": e.category,
                    "track": e.track,
                    "t": e.start_s,
                    "attrs": dict(e.attrs),
                }
            )
        return records

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.to_jsonl_records():
                f.write(json.dumps(rec) + "\n")

    # ---------------------------------------------------------------- import
    @classmethod
    def from_jsonl_records(cls, records: List[Dict[str, Any]]) -> "Tracer":
        """Rebuild a tracer from :meth:`to_jsonl_records` output, so saved
        traces can be profiled/summarized offline (`repro.obs.profiler`
        works on loaded traces exactly as on live ones)."""
        tracer = cls()
        max_id = 0
        for rec in records:
            span = Span(
                span_id=int(rec["id"]),
                parent_id=rec["parent"],
                name=rec["name"],
                category=rec["cat"],
                track=rec["track"],
                start_s=rec["t0"] if rec["type"] == "span" else rec["t"],
                end_s=rec["t1"] if rec["type"] == "span" else rec["t"],
                attrs=dict(rec.get("attrs") or {}),
            )
            if rec["type"] == "span":
                tracer.spans.append(span)
            else:
                tracer.events.append(span)
            max_id = max(max_id, span.span_id)
        tracer._next_id = max_id + 1
        return tracer

    @classmethod
    def read_jsonl(cls, path: str) -> "Tracer":
        """Load a trace written by :meth:`write_jsonl`; anything else is a
        :class:`~repro.errors.PDCError` naming the file."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                records = [json.loads(line) for line in f if line.strip()]
            return cls.from_jsonl_records(records)
        except (ValueError, KeyError, TypeError) as exc:  # bad JSON / not a trace record
            raise PDCError(f"{path}: not a JSONL trace ({exc!r})") from exc
