"""Client/server query transport over the simulated MPI runtime.

§III-C: *"The PDC client library automatically serializes the query
conditions and broadcasts them to all available servers ... The servers
send the result back to the client after it finishes its query
evaluation."*

This module runs that protocol for real on :mod:`repro.simmpi` threads:
rank 0 is the client, ranks 1..N are PDC servers.  Each server evaluates
its (stable-modulo) share of regions directly against the raw region
payloads and ships local hit coordinates back; the client merges them.  It
is the wire-level counterpart of the vectorized
:class:`~repro.query.executor.QueryEngine` — both must produce identical
answers (tested), and this path exercises serialization, broadcast, and
gather semantics end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import TransportError
from ..query.ast import QueryNode, node_from_dict, typed_conjuncts
from ..query.selection import sorted_unique
from ..simmpi.communicator import Communicator
from ..simmpi.launcher import run_spmd
from .system import PDCSystem

__all__ = ["QueryRequest", "QueryReply", "run_distributed_query"]


@dataclass(frozen=True)
class QueryRequest:
    """Wire form of a query: a serialized condition tree + constraint."""

    tree: dict
    region_constraint: Optional[Tuple[int, int]] = None

    def to_wire(self) -> dict:
        return {"tree": self.tree, "region": self.region_constraint}

    @classmethod
    def from_wire(cls, wire: dict) -> "QueryRequest":
        region = wire.get("region")
        return cls(
            tree=wire["tree"],
            region_constraint=tuple(region) if region is not None else None,
        )


@dataclass
class QueryReply:
    """One server's local result."""

    server_rank: int
    coords: np.ndarray


def _server_share(system: PDCSystem, n_servers: int, server_index: int, name: str):
    """(region ids, extents) owned by one server under the stable modulo
    assignment."""
    obj = system.get_object(name)
    rids = np.arange(obj.n_regions, dtype=np.int64)
    mine = rids[rids % n_servers == server_index]
    return obj, mine


def _evaluate_share(
    system: PDCSystem,
    request: QueryRequest,
    n_servers: int,
    server_index: int,
) -> np.ndarray:
    """Evaluate the request over one server's regions, reading payloads
    from the (simulated) PFS like a real server would."""
    node = node_from_dict(request.tree)
    all_coords: List[np.ndarray] = []
    for _, conjunct in typed_conjuncts(node, system.type_of):
        coords: Optional[np.ndarray] = None
        for name, interval in conjunct.items():
            obj, mine = _server_share(system, n_servers, server_index, name)
            if coords is None:
                parts = []
                for rid in mine:
                    off, count = int(obj.offsets[rid]), int(obj.counts[rid])
                    (payload,) = system.pfs.read_extents(
                        obj.file_path, [(off, off + count)]
                    )
                    local = np.flatnonzero(interval.mask(payload)).astype(np.int64)
                    parts.append(local + off)
                coords = (
                    np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
                )
            else:
                obj = system.get_object(name)
                values = obj.data[coords]
                coords = coords[interval.mask(values)]
            if coords.size == 0:
                break
        if coords is not None and coords.size:
            all_coords.append(coords)
    # The spatial region constraint is applied by the client, mirroring PDC
    # where servers return region-local results.
    if not all_coords:
        return np.zeros(0, dtype=np.int64)
    return sorted_unique(np.concatenate(all_coords))


def run_distributed_query(
    system: PDCSystem,
    node: QueryNode,
    n_server_ranks: Optional[int] = None,
    region_constraint: Optional[Tuple[int, int]] = None,
    fault_plan=None,
) -> np.ndarray:
    """Execute a query over simmpi ranks; returns sorted hit coordinates.

    Spawns ``1 + n_server_ranks`` ranks: the client broadcasts the
    serialized request, servers evaluate their shares, and the client
    gathers + merges (deduplicating, as the paper's OR path does).
    ``fault_plan`` (default: the system's installed plan) injects
    deterministic message drops/delays on the wire.
    """
    n_servers = system.n_servers if n_server_ranks is None else n_server_ranks
    if n_servers < 1:
        raise TransportError("need at least one server rank")
    # The client refuses an unknown object or an untypable bound itself; a
    # rank that raised would surface only as a RuntimeAbort.
    typed_conjuncts(node, system.type_of)
    request = QueryRequest(tree=node.to_dict(), region_constraint=region_constraint)

    def rank_main(comm: Communicator) -> Optional[np.ndarray]:
        wire = comm.bcast(request.to_wire() if comm.rank == 0 else None, root=0)
        req = QueryRequest.from_wire(wire)
        if comm.rank == 0:
            local = np.zeros(0, dtype=np.int64)
        else:
            local = _evaluate_share(system, req, comm.size - 1, comm.rank - 1)
        gathered = comm.gather(local, root=0)
        if comm.rank != 0:
            return None
        merged = sorted_unique(np.concatenate(gathered))
        if req.region_constraint is not None:
            start, stop = req.region_constraint
            merged = merged[(merged >= start) & (merged < stop)]
        return merged

    if fault_plan is None:
        fault_plan = system.fault_plan
    results = run_spmd(1 + n_servers, rank_main, fault_plan=fault_plan)
    return results[0]
