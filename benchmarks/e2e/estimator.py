"""The benchmark's arithmetic: probe scaling, slot quartiles, percentiles.

A run is E *epochs* that replay the same request sequence against a freshly
built deployment.  Each epoch carries its own probe durations; a *slot* is
one position of the sequence (request *i*, burst *j*, or "the set-up").

1. ``probe_level`` -- the epoch's speed: lower quartile of its probe durations.
2. ``to_reference`` -- every duration of the epoch times
   ``PROBE_NOMINAL_S / level``: reference seconds.
3. ``slot_values`` -- per slot, the lower quartile over the E epochs.  A
   contention episode only ever adds time and covers a minority of epochs at
   any one slot, so the lower quartile sits on the undisturbed value.
4. Metrics are sums and percentiles over slot values only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from probe import PROBE_NOMINAL_S

#: p95 needs ten samples beyond it (choosing-metrics guide, section 1).
MIN_SLOTS_FOR_P95 = 200


def lower_quartile(values: Sequence[float]) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 25))


def probe_level(probe_durations: Sequence[float]) -> float:
    """Speed level of one epoch, in raw seconds per probe."""
    if len(probe_durations) == 0:
        raise ValueError("an epoch needs at least one probe")
    return lower_quartile(probe_durations)


def to_reference(durations: Sequence[float], level: float) -> np.ndarray:
    """Raw seconds of one epoch -> reference seconds."""
    if level <= 0.0:
        raise ValueError("probe level must be positive")
    return np.asarray(durations, dtype=np.float64) * (PROBE_NOMINAL_S / level)


def slot_values(epochs: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-slot lower quartile over epochs; ``epochs`` is E rows of N slots."""
    table = np.asarray(epochs, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] == 0:
        raise ValueError("need a non-empty E x N table of durations")
    return np.percentile(table, 25, axis=0)


def percentile(slots: Sequence[float], q: float) -> float:
    """Percentile over slot values; refuses a tail percentile that fewer
    than ten samples lie beyond."""
    slots = np.asarray(slots, dtype=np.float64)
    if q >= 95.0 and slots.size < MIN_SLOTS_FOR_P95 * (100.0 - 95.0) / (100.0 - q):
        raise ValueError(
            f"p{q:g} over {slots.size} slots has fewer than ten samples beyond it"
        )
    return float(np.percentile(slots, q))


def throughput(n_requests: int, busy_slots: Sequence[float]) -> float:
    """Requests per second of summed slot time (closed loop, one client)."""
    return n_requests / float(np.sum(busy_slots))
