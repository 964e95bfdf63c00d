"""Critical-path and skew profiling over recorded traces.

The paper's parallel-query evaluation (§V–§VI) lives and dies on load
balance: 64–512 servers scan their region shares in parallel, so the
query is as fast as its *slowest* server, and Fig. 6's scaling flattens
exactly when per-server work stops shrinking.  This module turns a
:class:`~repro.obs.tracer.Tracer` span tree into the three diagnostics a
parallel query service needs (cf. Nieto-Santisteban et al., when "the
whole is slower than its parts"):

* **utilization** — per-clock (client/serverN) busy time as a union of
  span intervals, against the trace's wall window;
* **skew** — the imbalance ratio (max server busy / mean server busy)
  and a straggler ranking, the direct cause of flat scaling curves;
* **critical path** — the chain of spans that bounds end-to-end latency
  (greedy descent into the last-ending child), i.e. what to optimize
  first.

Flamegraph export comes in both lingua francas: collapsed stacks
(``a;b;c value`` — Brendan Gregg's ``flamegraph.pl`` and most viewers)
and `speedscope <https://www.speedscope.app>`_ evented JSON.

Everything here is pure post-processing of recorded spans: profiling a
trace never touches a clock, so the PR-1 zero-cost invariant holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .tracer import Span, Tracer

__all__ = [
    "TrackStats",
    "ProfileReport",
    "profile",
    "render_profile",
    "to_collapsed",
    "write_collapsed",
    "to_speedscope",
    "write_speedscope",
]


@dataclass
class TrackStats:
    """One simulated clock's (track's) share of the trace."""

    track: str
    #: Union of this track's span intervals (overlaps counted once).
    busy_s: float
    #: busy_s / the trace's wall window (0 when the window is empty).
    utilization: float
    spans: int


@dataclass
class ProfileReport:
    """What :func:`profile` computes from one span (sub)tree."""

    #: Trace window: earliest span start / latest span end.
    t_start: float
    t_end: float
    span_count: int
    tracks: List[TrackStats] = field(default_factory=list)
    #: max server busy / mean server busy (1.0 = perfectly balanced;
    #: 0.0 when no server track recorded any span).
    imbalance_ratio: float = 0.0
    #: Server tracks ranked by busy time, slowest first.
    stragglers: List[TrackStats] = field(default_factory=list)
    #: Root-to-leaf span chain bounding end-to-end latency.
    critical_path: List[Span] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return max(0.0, self.t_end - self.t_start)

    @property
    def critical_path_s(self) -> float:
        if not self.critical_path:
            return 0.0
        return self.critical_path[-1].end_s - self.critical_path[0].start_s


def _closed_spans(tracer: Tracer, root: Optional[Span]) -> List[Span]:
    spans = tracer.subtree(root) if root is not None else tracer.spans
    return [s for s in spans if s.end_s is not None]


def _busy_union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by the intervals, overlaps counted once."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


def profile(tracer: Tracer, root: Optional[Span] = None) -> ProfileReport:
    """Compute utilization, skew, and the critical path of a trace.

    ``root`` restricts the analysis to one span's subtree (e.g. a single
    query of a longer workload); by default the whole trace is profiled.
    """
    spans = _closed_spans(tracer, root)
    if not spans:
        return ProfileReport(t_start=0.0, t_end=0.0, span_count=0)
    t_start = min(s.start_s for s in spans)
    t_end = max(s.end_s for s in spans)
    wall = max(0.0, t_end - t_start)

    by_track: Dict[str, List[Span]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)
    tracks = []
    for name in sorted(by_track):
        members = by_track[name]
        busy = _busy_union([(s.start_s, s.end_s) for s in members])
        tracks.append(TrackStats(
            track=name,
            busy_s=busy,
            utilization=(busy / wall) if wall > 0 else 0.0,
            spans=len(members),
        ))

    servers = [t for t in tracks if t.track.startswith("server")]
    imbalance = 0.0
    if servers:
        mean_busy = sum(t.busy_s for t in servers) / len(servers)
        if mean_busy > 0:
            imbalance = max(t.busy_s for t in servers) / mean_busy
    stragglers = sorted(servers, key=lambda t: -t.busy_s)

    return ProfileReport(
        t_start=t_start,
        t_end=t_end,
        span_count=len(spans),
        tracks=tracks,
        imbalance_ratio=imbalance,
        stragglers=stragglers,
        critical_path=_critical_path(spans, root),
    )


def _critical_path(spans: Sequence[Span], root: Optional[Span]) -> List[Span]:
    """Greedy last-ending-child descent from the root span.

    The chain whose tail determines when each level finishes: at every
    node, the child that ends last is what the parent (a barrier over its
    children) waited for.
    """
    children: Dict[int, List[Span]] = {}
    ids = {s.span_id for s in spans}
    roots: List[Span] = []
    for s in spans:
        if s.parent_id is not None and s.parent_id in ids and (
            root is None or s.span_id != root.span_id
        ):
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    if root is not None:
        cur: Optional[Span] = root if root.end_s is not None else None
    else:
        cur = max(roots, key=lambda s: s.end_s, default=None)
    path: List[Span] = []
    while cur is not None:
        path.append(cur)
        kids = children.get(cur.span_id)
        cur = max(kids, key=lambda s: s.end_s) if kids else None
    return path


def render_profile(report: ProfileReport, top: int = 8) -> str:
    """Human-readable profile: utilization bars, skew, critical path."""
    lines = [
        f"trace window: {report.wall_s * 1e3:.3f} simulated ms, "
        f"{report.span_count} spans"
    ]
    lines.append("per-clock utilization:")
    for t in report.tracks:
        bar = "#" * int(round(t.utilization * 40))
        lines.append(
            f"  {t.track:<10} {t.busy_s * 1e3:9.3f} ms "
            f"{t.utilization * 100:6.1f}%  |{bar:<40}| ({t.spans} spans)"
        )
    if report.stragglers:
        lines.append(
            f"server imbalance ratio (max/mean busy): "
            f"{report.imbalance_ratio:.3f}"
        )
        lines.append("straggler ranking (slowest first):")
        for rank, t in enumerate(report.stragglers[:top], 1):
            lines.append(
                f"  {rank}. {t.track:<10} {t.busy_s * 1e3:9.3f} ms busy"
            )
    if report.critical_path:
        lines.append(
            f"critical path ({report.critical_path_s * 1e3:.3f} ms):"
        )
        for depth, s in enumerate(report.critical_path):
            lines.append(
                f"  {'  ' * depth}{s.name} [{s.track}] "
                f"{s.duration_s * 1e3:.3f} ms"
            )
    return "\n".join(lines)


# ------------------------------------------------------------- flamegraphs
def to_collapsed(tracer: Tracer, root: Optional[Span] = None) -> List[str]:
    """Collapsed-stack lines (``parent;child;leaf value``), value in
    integer simulated microseconds of *self* time — feed straight into
    ``flamegraph.pl`` or any collapsed-stack viewer."""
    spans = _closed_spans(tracer, root)
    by_id = {s.span_id: s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent_id in by_id:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration_s

    weights: Dict[str, int] = {}
    for s in spans:
        names = [s.name]
        cur = s
        while cur.parent_id in by_id:
            cur = by_id[cur.parent_id]
            names.append(cur.name)
        stack = ";".join(reversed(names))
        self_s = max(0.0, s.duration_s - child_time.get(s.span_id, 0.0))
        weights[stack] = weights.get(stack, 0) + int(round(self_s * 1e6))
    return [f"{stack} {value}" for stack, value in sorted(weights.items()) if value > 0]


def write_collapsed(tracer: Tracer, path: str, root: Optional[Span] = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for line in to_collapsed(tracer, root):
            f.write(line + "\n")


def to_speedscope(
    tracer: Tracer, root: Optional[Span] = None, name: str = "pdc-sim"
) -> Dict[str, Any]:
    """`speedscope <https://www.speedscope.app>`_ evented-format JSON:
    one profile per track (simulated clock), frames shared.  Within one
    track spans nest properly in time (clocks only move forward), which
    is exactly the open/close nesting the format requires."""
    spans = _closed_spans(tracer, root)
    frames: List[Dict[str, str]] = []
    frame_of: Dict[str, int] = {}

    def frame(nm: str) -> int:
        if nm not in frame_of:
            frame_of[nm] = len(frames)
            frames.append({"name": nm})
        return frame_of[nm]

    by_track: Dict[str, List[Span]] = {}
    for s in spans:
        by_track.setdefault(s.track, []).append(s)

    profiles = []
    for track in sorted(by_track):
        members = sorted(
            by_track[track], key=lambda s: (s.start_s, -(s.end_s - s.start_s))
        )
        events: List[Dict[str, Any]] = []
        stack: List[Span] = []
        for s in members:
            while stack and stack[-1].end_s <= s.start_s:
                done = stack.pop()
                events.append(
                    {"type": "C", "frame": frame(done.name), "at": done.end_s}
                )
            stack.append(s)
            events.append({"type": "O", "frame": frame(s.name), "at": s.start_s})
        while stack:
            done = stack.pop()
            events.append({"type": "C", "frame": frame(done.name), "at": done.end_s})
        t0 = min(s.start_s for s in members)
        t1 = max(s.end_s for s in members)
        profiles.append(
            {
                "type": "evented",
                "name": track,
                "unit": "seconds",
                "startValue": t0,
                "endValue": t1,
                "events": events,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": profiles,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.profiler",
    }


def write_speedscope(
    tracer: Tracer, path: str, root: Optional[Span] = None, name: str = "pdc-sim"
) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_speedscope(tracer, root, name=name), f)
