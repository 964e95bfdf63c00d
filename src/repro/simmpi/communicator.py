"""A threaded, deterministic MPI-style communicator.

The PDC client library *"serializes the query conditions and broadcasts
them to all available servers"* and a background thread *"aggregates the
results received from all servers"* (§III-C).  This module provides the
message-passing substrate those components run on: an mpi4py-lookalike
communicator whose ranks are Python threads in one process.  It carries
exactly the client↔server traffic of that protocol — broadcast, gather,
reduce, barrier, and blocking point-to-point — and nothing else: the
paper's servers never talk to each other after metadata distribution, so
there is no scatter/allgather/allreduce/alltoall and no non-blocking half.

Semantics follow mpi4py's lower-case (pickle-based) API:

* ``send``/``recv`` are blocking point-to-point with (source, tag) matching
  and FIFO ordering per (source, dest, tag) channel;
* messages are deep-copied on send, so no mutable state is shared;
* collectives (``bcast``, ``gather``, ``reduce``, ``barrier``) are built
  from point-to-point traffic on a reserved internal tag space, sequenced
  by a per-rank collective counter — correct as long as usage is SPMD,
  which the launcher enforces by construction.

Reductions always fold in rank order (see ``reduce_sequence``), so results
are bit-deterministic regardless of thread scheduling.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, List, Optional, Tuple

from ..errors import TransportError
from .reduceops import SUM, ReduceOp, reduce_sequence

__all__ = ["Communicator", "CommStats", "ANY_SOURCE", "ANY_TAG", "CommWorld"]

#: Wildcard source for ``recv``.
ANY_SOURCE = -1
#: Wildcard tag for ``recv``.
ANY_TAG = -1

#: Internal collectives use tags at/above this value; user tags must be below.
_COLL_TAG_BASE = 1 << 30


def _copy_message(obj: Any) -> Any:
    """Deep copy via pickle — models serialization across the wire."""
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class CommStats:
    """Wire traffic counters shared by all ranks of one communicator.

    Every message is attributed to the operation that shipped it
    (``p2p``, ``bcast``, ``gather``); ``reduce`` is the gather traffic it
    generates.  Byte counts are serialized (pickled) payload sizes — the
    wire form.
    """

    def __init__(self, metrics=None) -> None:
        self._lock = threading.Lock()
        self.messages_total = 0
        self.bytes_total = 0
        self.messages_by_op: dict = {}
        self.bytes_by_op: dict = {}
        #: Fault-injection traffic: dropped (retransmitted) messages and
        #: the wasted wire bytes, plus in-flight delay events.
        self.drops_total = 0
        self.dropped_bytes_total = 0
        self.delays_total = 0
        self._metrics = metrics
        self._m_children: dict = {}

    def account(self, op: str, nbytes: int, messages: int = 1) -> None:
        with self._lock:
            self.messages_total += messages
            self.bytes_total += nbytes
            self.messages_by_op[op] = self.messages_by_op.get(op, 0) + messages
            self.bytes_by_op[op] = self.bytes_by_op.get(op, 0) + nbytes
            if self._metrics is not None:
                pair = self._m_children.get(op)
                if pair is None:
                    pair = (
                        self._metrics.counter(
                            "simmpi_messages_total",
                            "Messages shipped over the simmpi wire, by operation.",
                            labels=("op",),
                        ).labels(op=op),
                        self._metrics.counter(
                            "simmpi_bytes_total",
                            "Serialized payload bytes shipped over the simmpi "
                            "wire, by operation.",
                            labels=("op",),
                        ).labels(op=op),
                    )
                    self._m_children[op] = pair
                pair[0].inc(messages)
                pair[1].inc(nbytes)

    def account_drop(self, op: str, nbytes: int) -> None:
        """One dropped-and-retransmitted message (fault injection)."""
        with self._lock:
            self.drops_total += 1
            self.dropped_bytes_total += nbytes
            if self._metrics is not None:
                self._metrics.counter(
                    "simmpi_messages_dropped_total",
                    "Messages dropped (and retransmitted) by fault injection.",
                    labels=("op",),
                ).labels(op=op).inc()

    def account_delay(self, op: str) -> None:
        """One delayed-in-flight message (fault injection)."""
        with self._lock:
            self.delays_total += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "simmpi_messages_delayed_total",
                    "Messages delayed in flight by fault injection.",
                    labels=("op",),
                ).labels(op=op).inc()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "messages_total": self.messages_total,
                "bytes_total": self.bytes_total,
                "messages_by_op": dict(self.messages_by_op),
                "bytes_by_op": dict(self.bytes_by_op),
                "drops_total": self.drops_total,
                "dropped_bytes_total": self.dropped_bytes_total,
                "delays_total": self.delays_total,
            }


class _Mailbox:
    """Per-destination buffer of in-flight messages with condition-variable
    wakeup."""

    def __init__(self) -> None:
        self._messages: List[Tuple[int, int, Any]] = []
        self._cond = threading.Condition()
        self._closed = False

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            if self._closed:
                raise TransportError("mailbox closed (runtime shut down)")
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def take(self, source: int, tag: int, timeout: Optional[float]) -> Tuple[int, int, Any]:
        """Blocking matched receive; FIFO among matching messages."""

        def _match() -> Optional[int]:
            for i, (src, t, _) in enumerate(self._messages):
                if (source == ANY_SOURCE or src == source) and (tag == ANY_TAG or t == tag):
                    return i
            return None

        with self._cond:
            idx = _match()
            while idx is None:
                if self._closed:
                    raise TransportError("mailbox closed while waiting for message")
                if not self._cond.wait(timeout=timeout):
                    raise TransportError(
                        f"recv timed out waiting for source={source} tag={tag}"
                    )
                idx = _match()
            return self._messages.pop(idx)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _SharedState:
    """State shared by all rank views of one communicator."""

    def __init__(
        self, size: int, timeout: Optional[float], metrics=None, fault_plan=None
    ) -> None:
        self.size = size
        self.timeout = timeout
        self.mailboxes = [_Mailbox() for _ in range(size)]
        self.barrier = threading.Barrier(size)
        self.stats = CommStats(metrics=metrics)
        #: Deterministic fault plan (:mod:`repro.faults`); None = clean wire.
        self.fault_plan = fault_plan

    def close(self) -> None:
        for mb in self.mailboxes:
            mb.close()


class Communicator:
    """One rank's view of the communicator (cf. ``MPI.COMM_WORLD``)."""

    def __init__(self, state: _SharedState, rank: int) -> None:
        self._state = state
        self._rank = rank
        self._coll_seq = 0

    # ----------------------------------------------------------- environment
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._state.size

    @property
    def stats(self) -> CommStats:
        """Shared wire-traffic counters (bytes/messages per operation)."""
        return self._state.stats

    def _ship(self, obj: Any, dest: int, tag: int, op: str) -> None:
        """Serialize once, account the wire bytes to ``op``, deliver.

        With a fault plan installed, the message may be *dropped* in
        flight: the sender's reliable-delivery layer detects the loss and
        retransmits (each drop re-ships the bytes), so blocking semantics
        are preserved; a message dropped more than ``max_retries`` times
        raises :class:`TransportError` (a dead link).  Delay faults are
        counted on the stats (the threaded wire has no simulated clock to
        charge them to — see docs/robustness.md).
        """
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        plan = self._state.fault_plan
        if plan is not None:
            channel = f"{self._rank}->{dest}:{op}"
            drops = 0
            while plan.msg_dropped(channel):
                drops += 1
                self._state.stats.account_drop(op, len(blob))
                if drops > plan.config.max_retries:
                    raise TransportError(
                        f"message {self._rank}->{dest} ({op}) dropped "
                        f"{drops} times; link presumed dead"
                    )
            if plan.msg_delayed(channel):
                self._state.stats.account_delay(op)
        self._state.stats.account(op, len(blob))
        self._state.mailboxes[dest].put(self._rank, tag, pickle.loads(blob))

    # --------------------------------------------------------- point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking send (buffered: completes immediately after enqueue,
        like a small-message eager send)."""
        self._check_peer(dest)
        self._check_user_tag(tag)
        self._ship(obj, dest, tag, "p2p")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking matched receive; returns the payload."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        _, _, payload = self._state.mailboxes[self._rank].take(
            source, tag, self._state.timeout
        )
        return payload

    # ------------------------------------------------------------ collectives
    def _next_coll_tag(self) -> int:
        tag = _COLL_TAG_BASE + self._coll_seq
        self._coll_seq += 1
        return tag

    def barrier(self) -> None:
        """Synchronize all ranks."""
        self._state.barrier.wait()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self._rank == root:
            payload = _copy_message(obj)
            for dest in range(self.size):
                if dest != root:
                    self._ship(payload, dest, tag, "bcast")
            return payload
        _, _, payload = self._state.mailboxes[self._rank].take(root, tag, self._state.timeout)
        return payload

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Collect one value per rank at ``root`` (rank order); others get
        None."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        if self._rank == root:
            results: List[Any] = [None] * self.size
            results[root] = _copy_message(obj)
            for _ in range(self.size - 1):
                src, _, payload = self._state.mailboxes[root].take(
                    ANY_SOURCE, tag, self._state.timeout
                )
                results[src] = payload
            return results
        self._ship(obj, root, tag, "gather")
        return None

    def reduce(self, obj: Any, op: ReduceOp = SUM, root: int = 0) -> Optional[Any]:
        """Fold ``op`` over all ranks' values (rank order) at ``root``."""
        gathered = self.gather(obj, root=root)
        if self._rank == root:
            assert gathered is not None
            return reduce_sequence(gathered, op)
        return None

    # ---------------------------------------------------------------- checks
    def _check_peer(self, rank: int) -> None:
        if not (0 <= rank < self.size):
            raise TransportError(f"rank {rank} out of range [0, {self.size})")

    def _check_user_tag(self, tag: int) -> None:
        if not (0 <= tag < _COLL_TAG_BASE):
            raise TransportError(f"user tag {tag} out of range [0, {_COLL_TAG_BASE})")


def CommWorld(
    size: int, timeout: Optional[float] = 60.0, metrics=None, fault_plan=None
) -> List[Communicator]:
    """Create ``size`` rank views sharing one communicator.

    Primarily used by the launcher; tests may use it directly to drive
    ranks from hand-managed threads.  ``metrics`` optionally feeds a
    :class:`~repro.obs.metrics.MetricsRegistry` with per-operation wire
    traffic (``simmpi_messages_total``/``simmpi_bytes_total``).
    ``fault_plan`` optionally injects deterministic message drops/delays
    (:mod:`repro.faults`).
    """
    if size < 1:
        raise TransportError("communicator size must be >= 1")
    state = _SharedState(size, timeout, metrics=metrics, fault_plan=fault_plan)
    return [Communicator(state, r) for r in range(size)]
