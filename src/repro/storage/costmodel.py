"""Simulated-time accounting for the storage and network substrate.

The paper's evaluation ran on the Cori supercomputer and reported elapsed
wall-clock seconds.  This reproduction replaces the machine with a calibrated
cost model: every storage read, network message, and element scan *charges*
simulated seconds to a :class:`SimClock`.  The elapsed time of a parallel
phase is the maximum over the participating servers' clocks, which models a
bulk-synchronous execution exactly the way the paper measures end-to-end
query time (client issues query → all servers evaluate → client aggregates).

Calibration targets (Cori Haswell + Lustre, §V of the paper):

* Lustre aggregate read bandwidth shared by all servers, charged per OST
  with a contention factor when many servers read at once.
* A per-access latency that penalizes many small non-contiguous reads —
  the effect that motivates region-size tuning and read aggregation (§III-E).
* A per-element scan cost for in-memory query evaluation.

All constants live in :class:`CostParameters`; every deployment prices on
:data:`CORI_LIKE`.  A ``virtual_scale`` factor maps the scaled-down in-memory arrays used
by this reproduction onto the paper's 3.3 TB dataset: costs are charged in
*virtual* bytes/elements (real × scale) while correctness is checked on the
real data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..types import GB

__all__ = ["CostParameters", "SimClock", "CostModel", "CORI_LIKE"]


@dataclass(frozen=True)
class CostParameters:
    """Constants of the simulated machine.

    Defaults approximate one Cori Haswell node reading from the shared
    Lustre scratch file system.
    """

    #: Per-access latency of the parallel file system (seek + RPC), seconds.
    seek_latency_s: float = 2.0e-3
    #: Sustained read bandwidth of a single OST, bytes/second.
    ost_bandwidth_bps: float = 0.35 * GB
    #: Number of OSTs in the simulated Lustre file system.
    n_osts: int = 248
    #: Maximum striping width of one file (Lustre default-ish cap).
    max_stripe_count: int = 72
    #: Point-to-point network message latency, seconds.
    net_latency_s: float = 20.0e-6
    #: Network bandwidth between client and a server, bytes/second.
    net_bandwidth_bps: float = 8.0 * GB
    #: CPU cost to evaluate one element against a condition, seconds.
    scan_cost_per_elem_s: float = 0.35e-9
    #: CPU cost of one comparison step in a binary search, seconds.
    binary_search_step_s: float = 50.0e-9
    #: Memory bandwidth for in-memory copies (cache hits), bytes/second.
    mem_bandwidth_bps: float = 40.0 * GB
    #: Exponent of the contention penalty: effective per-reader bandwidth is
    #: divided by ``max(1, readers_per_ost) ** contention_alpha``.
    contention_alpha: float = 1.0
    #: Cost to decompress/scan one WAH word of a bitmap index, seconds.
    wah_word_cost_s: float = 1.2e-9
    #: Fixed software overhead per query request on a server, seconds.
    server_overhead_s: float = 1.0e-4
    #: Cost to examine one metadata record during a metadata query, seconds.
    meta_op_cost_s: float = 150.0e-9
    #: Fixed client-side cost to serialize/deserialize a query plan, seconds.
    client_overhead_s: float = 5.0e-4


#: Default parameter set used by the benchmark harness.
CORI_LIKE = CostParameters()


class SimClock:
    """Accumulator of simulated seconds for one simulated entity.

    A clock only moves forward.  ``charge`` adds a duration; ``advance_to``
    implements a rendezvous with another clock (used when a server must wait
    for data produced elsewhere).  ``PDCServer.touch_share`` adds a share's
    charges to ``_now`` and ``_by_category`` in one pass, as ``charge`` would.
    """

    __slots__ = ("_now", "name", "_by_category", "drag")

    def __init__(self, name: str = "clock") -> None:
        self.name = name
        self._now = 0.0
        self._by_category: Dict[str, float] = {}
        #: Straggler multiplier applied to every charge (fault injection:
        #: a "slow server" runs all its work at ``drag``× cost).  Exactly
        #: 1.0 leaves charges bit-identical to an undragged clock.
        self.drag = 1.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def charge(self, seconds: float, category: str = "other") -> float:
        """Add ``seconds`` of simulated work; returns the new time.

        Negative or non-finite charges indicate a cost-model bug and raise.
        """
        if not (seconds >= 0.0) or math.isinf(seconds) or math.isnan(seconds):
            raise ValueError(f"invalid charge {seconds!r} on clock {self.name}")
        if self.drag != 1.0:
            seconds = seconds * self.drag
        self._now += seconds
        self._by_category[category] = self._by_category.get(category, 0.0) + seconds
        return self._now

    def advance_to(self, t: float, category: str = "wait") -> float:
        """Move the clock to time ``t`` if ``t`` is later (waiting).

        ``category`` attributes the waited time: plain barrier waits stay
        under ``wait``; rendezvous inside communication collectives pass
        ``comm`` so reports can separate "idle at a barrier" from "stalled
        on communication".
        """
        if t > self._now:
            self._by_category[category] = self._by_category.get(category, 0.0) + (t - self._now)
            self._now = t
        return self._now

    def breakdown(self) -> Dict[str, float]:
        """Charged seconds per category (copy)."""
        return dict(self._by_category)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({self.name!r}, now={self._now:.6f}s)"


@dataclass
class CostModel:
    """Translates physical operations into simulated seconds.

    One :class:`CostModel` is shared by all servers of a PDC deployment so
    contention can be modeled globally.  The model is stateless apart from
    its parameters; all state (elapsed time) lives in the clocks.

    A size argument (``nbytes``, ``n_elements``, ``n_words``) may be an
    integer array: every expression is elementwise, so entry *i* is the
    float the scalar call on element *i* returns.
    """

    params: CostParameters = field(default_factory=lambda: CORI_LIKE)
    #: Each real byte/element stands for this many virtual ones.
    virtual_scale: float = 1.0

    # ---------------------------------------------------------------- storage
    def pfs_read_time(
        self,
        nbytes: int,
        n_accesses: int,
        stripe_count: int,
        concurrent_readers: int = 1,
        scaled: bool = True,
    ) -> float:
        """Seconds to read ``nbytes`` (real) from the PFS in ``n_accesses``
        contiguous extents, with ``concurrent_readers`` servers hammering the
        file system at once.

        Bandwidth scales with the file's stripe width but degrades when more
        readers than OSTs pile up (§III-E: PDC's distribution across storage
        devices reduces exactly this contention).

        ``scaled=False`` charges the byte count as-is — for metadata-like
        payloads (histograms, index directories) whose size does not grow
        with the virtual dataset.
        """
        p = self.params
        vbytes = nbytes * (self.virtual_scale if scaled else 1.0)
        stripes = max(1, min(stripe_count, p.max_stripe_count))
        readers_per_ost = max(1.0, concurrent_readers * stripes / p.n_osts)
        bw = p.ost_bandwidth_bps * stripes / (readers_per_ost ** p.contention_alpha)
        return n_accesses * p.seek_latency_s + vbytes / bw

    def pfs_write_time(
        self, nbytes: int, n_accesses: int, stripe_count: int, concurrent_writers: int = 1
    ) -> float:
        """Writes are modeled like reads at ~80% of read bandwidth."""
        return self.pfs_read_time(nbytes, n_accesses, stripe_count, concurrent_writers) / 0.8

    def mem_copy_time(self, nbytes: int, scaled: bool = True) -> float:
        """Seconds to copy ``nbytes`` (real) within a server's memory
        (cache hit path)."""
        scale = self.virtual_scale if scaled else 1.0
        return (nbytes * scale) / self.params.mem_bandwidth_bps

    # ---------------------------------------------------------------- network
    def net_time(self, nbytes: int, scaled: bool = True) -> float:
        """Seconds to move one message of ``nbytes`` (real) across the
        interconnect.  ``scaled=False`` for metadata-sized messages that do
        not grow with the virtual dataset."""
        scale = self.virtual_scale if scaled else 1.0
        return self.params.net_latency_s + (nbytes * scale) / self.params.net_bandwidth_bps

    # -------------------------------------------------------------------- cpu
    def scan_time(self, n_elements: int, n_conditions: int = 1) -> float:
        """Seconds to evaluate ``n_conditions`` comparisons over
        ``n_elements`` (real) array elements."""
        return n_elements * self.virtual_scale * n_conditions * self.params.scan_cost_per_elem_s

    def binary_search_time(self, n_elements: int) -> float:
        """Seconds for a binary search over ``n_elements`` (virtual-scaled)."""
        n = max(2.0, n_elements * self.virtual_scale)
        return math.log2(n) * self.params.binary_search_step_s

    def wah_scan_time(self, n_words: int) -> float:
        """Seconds to stream ``n_words`` compressed WAH words."""
        return n_words * self.virtual_scale * self.params.wah_word_cost_s

    def sort_time(self, n_elements: int) -> float:
        """Seconds for an out-of-core parallel sort of ``n_elements``
        (used only when building sorted replicas, reported as a one-time
        reorganization cost)."""
        n = max(2.0, n_elements * self.virtual_scale)
        return n * math.log2(n) * self.params.scan_cost_per_elem_s * 4.0

    # ---------------------------------------------------------------- helpers
    def virtual_bytes(self, nbytes: int) -> float:
        """Real byte count scaled to the paper's dataset size."""
        return nbytes * self.virtual_scale
