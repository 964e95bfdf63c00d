"""Correctness oracle: a numpy shadow model of every object.

``expected_outputs`` replays a workload's sequence against plain copies of
the generated arrays -- a predicate is two lines of numpy, a write is a slice
assignment or a concatenate -- and records what each request must return.
Inside one burst all writes are applied before any read, which is what the
service does within a dispatch window.  Every epoch replays the same inputs
on a fresh deployment, so one replay serves all epochs.

Each request's hit count is checked; every eighth request (and every
``get_data``/``gather``/``setop``) is also checked by a digest of its
selection coordinates or values.  The time of each replayed request is kept
as ``kernel.oracle``: the floor two lines of numpy set for that request.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

#: Requests whose full output (not only the count) is compared.
FULL_CHECK_EVERY = 8


def digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).data, digest_size=16).hexdigest()


@dataclass
class Expected:
    nhits: int
    #: Digest of coordinates (query, setop) or values (get_data, gather);
    #: None where only the count is checked.
    digest: Optional[str] = None
    #: Raw seconds the numpy replay of this request took.
    oracle_s: float = 0.0


def evaluate(arrays: Dict[str, np.ndarray], conds) -> np.ndarray:
    """Sorted coordinates matching an AND of open ``(object, lo, hi)`` ranges."""
    mask = None
    for name, lo, hi in conds:
        a = arrays[name]
        if lo is not None:
            m = a > np.float32(lo)
            mask = m if mask is None else mask & m
        if hi is not None:
            m = a < np.float32(hi)
            mask = m if mask is None else mask & m
    return np.flatnonzero(mask)


def _setop(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op == "intersect":
        return np.intersect1d(a, b, assume_unique=True)
    if op == "union":
        return np.union1d(a, b)
    return np.setdiff1d(a, b, assume_unique=True)


def expected_outputs(arrays: Dict[str, np.ndarray], requests, burst: int = 0) -> List[Expected]:
    """Replay ``requests`` on a shadow copy; ``burst`` > 0 groups that many
    consecutive requests into one window (writes first)."""
    shadow = {name: a.copy() for name, a in arrays.items()}
    out: List[Optional[Expected]] = [None] * len(requests)
    recent: List[np.ndarray] = []  # coordinates of the last two queries

    def replay(i: int) -> None:
        req = requests[i]
        full = i % FULL_CHECK_EVERY == 0
        t0 = perf_counter()
        if req.kind == "query":
            coords = evaluate(shadow, req.conds)
            elapsed = perf_counter() - t0
            recent.append(coords)
            del recent[:-2]
            out[i] = Expected(int(coords.size), digest(coords) if full else None, elapsed)
        elif req.kind == "get_data":
            values = shadow[req.object_name][recent[-1]]
            elapsed = perf_counter() - t0
            out[i] = Expected(int(values.size), digest(values), elapsed)
        elif req.kind == "setop":
            coords = _setop(req.op, recent[-2], recent[-1])
            elapsed = perf_counter() - t0
            out[i] = Expected(int(coords.size), digest(coords), elapsed)
        elif req.kind == "gather":
            values = shadow[req.object_name][np.unique(req.coords)]
            elapsed = perf_counter() - t0
            out[i] = Expected(int(values.size), digest(values), elapsed)
        elif req.kind == "write":
            if req.offset is None:
                shadow[req.object_name] = np.concatenate([shadow[req.object_name], req.values])
            else:
                shadow[req.object_name][req.offset:req.offset + req.values.size] = req.values
            out[i] = Expected(int(req.values.size), None, perf_counter() - t0)
        else:
            raise ValueError(f"unknown request kind {req.kind!r}")

    step = burst or 1
    for start in range(0, len(requests), step):
        window = range(start, min(start + step, len(requests)))
        for i in window:
            if requests[i].kind == "write":
                replay(i)
        for i in window:
            if requests[i].kind != "write":
                replay(i)
    return out  # type: ignore[return-value]


def check(expected: Expected, nhits: int, payload: Optional[np.ndarray]) -> bool:
    """True when an actual output matches; ``payload`` is the selection's
    coordinates or the returned values."""
    if nhits != expected.nhits:
        return False
    if expected.digest is not None:
        return payload is not None and digest(payload) == expected.digest
    return True
