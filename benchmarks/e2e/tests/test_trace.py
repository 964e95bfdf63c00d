"""Span arithmetic and the install/restore contract of the wrappers."""

import numpy as np
import pytest

from trace import SpanRecorder, span_names, targets, traced


def recorder_with(spans):
    """spans: (name, start, end, parent index)."""
    rec = SpanRecorder()
    for name, start, end, parent in spans:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
        rec.requests.append(0)
    return rec


def test_self_time_subtracts_nested_and_sibling_children():
    rec = recorder_with([
        ("drain", 0.0, 10.0, -1),
        ("window", 1.0, 9.0, 0),      # child of drain
        ("execute", 2.0, 4.0, 1),     # siblings under window ...
        ("execute", 5.0, 8.0, 1),
        ("ensure", 5.5, 6.0, 3),      # ... one with a child of its own
        ("submit", 10.0, 11.0, -1),
    ])
    assert rec.self_times() == pytest.approx([2.0, 3.0, 2.0, 2.5, 0.5, 1.0])
    table = rec.by_name()
    assert table["execute"] == (2, pytest.approx(4.5), pytest.approx(5.0))
    # Self times partition the top-level time: nothing counted twice.
    assert sum(rec.self_times()) == pytest.approx(rec.top_level_seconds()) == 11.0


def test_overlapping_children_are_covered_once():
    rec = recorder_with([("a", 0.0, 10.0, -1), ("b", 1.0, 6.0, 0), ("c", 4.0, 8.0, 0)])
    assert rec.self_times()[0] == pytest.approx(3.0)


def test_every_span_has_its_two_metrics_in_benchmark_json():
    import json
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "..", "..")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for name in span_names():
        assert {f"{name}.self_ms_per_request", f"{name}.calls_per_request"} <= declared


def test_wrappers_record_and_then_restore_the_originals():
    from repro.query.selection import Selection

    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in targets()}
    rec = SpanRecorder()
    with traced(rec):
        assert all(vars(owner)[attr] is not before[owner, attr] for owner, attr in before)
        rec.request_id = 5
        a = Selection.from_unsorted(np.array([3, 1, 2, 3]), 10)  # a classmethod
        b = a.union(Selection(np.array([7]), 10))
    assert b.coords.tolist() == [1, 2, 3, 7]
    assert rec.names == ["selection.setops", "selection.setops"]
    assert rec.requests == [5, 5] and rec.parents == [-1, -1]
    assert all(end >= start for start, end in zip(rec.starts, rec.ends))
    assert all(vars(owner)[attr] is before[owner, attr] for owner, attr in before)
    Selection.from_unsorted(np.array([2, 1]), 4)
    assert len(rec) == 2  # nothing records once restored


def test_originals_come_back_when_the_traced_block_raises():
    from repro.query.executor import QueryEngine

    original = QueryEngine.execute
    with pytest.raises(RuntimeError):
        with traced(SpanRecorder()):
            raise RuntimeError("epoch failed")
    assert QueryEngine.execute is original
