"""Fixed reference probe: the yardstick every benchmark timing is scaled by.

Raw wall-clock on a small shared VM does not repeat within a tenth: whole
seconds run 1.35-1.8x slow when a neighbour is busy, and the machine's speed
drifts by +-10 % over minutes.  The probe is a fixed amount of work with the
same three ingredients as the program under test, in equal shares --
interpreter bytecode, cache-resident numpy masks, and one streaming mask over
an array larger than L2.  Which ingredient a slow phase hits hardest differs
from hour to hour (README.md, "What the normalisation buys"), and later
changes will shift the program's own mix, so the probe stays in the middle
rather than fitted to one hour.  ``run.py`` times it before and after every
timed section and multiplies each section's duration by
``PROBE_NOMINAL_S / (lower quartile of the epoch's probe durations)``; the
result is in *reference seconds*: the time the section would have taken on
the host and at the moment the nominal value was measured.
"""

from __future__ import annotations

import time

import numpy as np

#: Lower quartile of 1000 probe durations on the host the benchmark was
#: written on (nproc=2, CPython 3.11.7, numpy 2.4.6).  A committed literal,
#: never re-measured at run time: it only fixes the unit of reference seconds.
PROBE_NOMINAL_S = 0.0068

_LOOP_ITERATIONS = 30_000
_SMALL_ELEMENTS = 32 * 1024
_SMALL_REPEATS = 60
_LARGE_ELEMENTS = 2 * 1024 * 1024

_rng = np.random.default_rng(20200518)
_SMALL = _rng.random(_SMALL_ELEMENTS, dtype=np.float32)
_LARGE = _rng.random(_LARGE_ELEMENTS, dtype=np.float32)
del _rng
_LO = np.float32(0.25)
_HI = np.float32(0.75)


def probe() -> float:
    """Run the fixed work once; return its duration in raw seconds."""
    t0 = time.perf_counter()
    acc = 1
    for i in range(_LOOP_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFF
    small = _SMALL
    for _ in range(_SMALL_REPEATS):
        np.flatnonzero((small > _LO) & (small < _HI))
    np.flatnonzero((_LARGE > _LO) & (_LARGE < _HI))
    return time.perf_counter() - t0
