"""The PDC-Query user API (Fig. 1 of the paper).

Python renderings of the C functions, keeping names and argument order
recognizable::

    q1 = PDCquery_create(system, energy_id, ">", "float", 2.0)
    q2 = PDCquery_create(system, x_id, "<", "float", 200.0)
    q  = PDCquery_and(q1, q2)
    PDCquery_set_region(q, (0, 1_000_000))
    n        = PDCquery_get_nhits(q)
    sel      = PDCquery_get_selection(q)
    values   = PDCquery_get_data(system, energy_id, sel)
    for batch in PDCquery_get_data_batch(system, energy_id, sel, 10_000): ...
    hist     = PDCquery_get_histogram(system, energy_id)
    ids      = PDCquery_tag(system, "RADEG", 153.17)

The C API's ``free`` calls are unnecessary in Python and intentionally
absent.  A :class:`PDCQuery` carries its timing of the last evaluation in
``last_result`` for benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import QueryError, QueryTypeError
from ..histogram.global_hist import GlobalHistogram
from ..pdc.system import PDCSystem
from ..strategies import Strategy
from ..types import PDCType, QueryOp, Scalar
from .ast import Condition, QueryNode, combine_and, combine_or, typed_conjuncts
from .executor import QueryEngine, QueryResult
from .region_constraint import HyperSlab, RegionConstraint, normalize_constraint
from .selection import Selection

__all__ = [
    "PDCQuery",
    "PDCquery_create",
    "PDCquery_and",
    "PDCquery_or",
    "PDCquery_set_region",
    "PDCquery_estimate_nhits",
    "PDCquery_get_nhits",
    "PDCquery_get_selection",
    "PDCquery_get_data",
    "PDCquery_get_data_batch",
    "PDCquery_get_histogram",
    "PDCquery_tag",
    "PDCquery_execute_batch",
]


@dataclass
class PDCQuery:
    """A constructed query: condition tree + optional spatial constraint."""

    system: PDCSystem
    node: QueryNode
    region: Optional[RegionConstraint] = None
    strategy: Optional[Strategy] = None
    #: Simulated execution budget (``PDCquery_set_timeout``); exceeding
    #: it yields a partial, ``timed_out`` result.
    timeout_s: Optional[float] = None
    #: Result of the most recent evaluation (timing + stats), if any.
    last_result: Optional[QueryResult] = field(default=None, repr=False)

    @property
    def engine(self) -> QueryEngine:
        return QueryEngine(self.system)

    def __str__(self) -> str:
        s = str(self.node)
        if isinstance(self.region, HyperSlab):
            s += f" WITHIN {self.region}"
        elif self.region is not None:
            s += f" WITHIN [{self.region[0]}, {self.region[1]})"
        return s


def _coerce_op(op: Union[QueryOp, str]) -> QueryOp:
    if isinstance(op, QueryOp):
        return op
    try:
        return QueryOp(op)
    except ValueError:
        valid = ", ".join(o.value for o in QueryOp)
        raise QueryError(f"bad operator {op!r}; valid: {valid}") from None


def _coerce_type(pdc_type: Union[PDCType, str, np.dtype, type]) -> PDCType:
    if isinstance(pdc_type, PDCType):
        return pdc_type
    if isinstance(pdc_type, str):
        try:
            return PDCType(pdc_type)
        except ValueError:
            valid = ", ".join(t.value for t in PDCType)
            raise QueryTypeError(f"bad pdc type {pdc_type!r}; valid: {valid}") from None
    from ..types import pdc_type_of_dtype

    return pdc_type_of_dtype(np.dtype(pdc_type))


def PDCquery_create(
    system: PDCSystem,
    obj_id: int,
    op: Union[QueryOp, str],
    pdc_type: Union[PDCType, str, np.dtype, type],
    value: Scalar,
) -> PDCQuery:
    """Create a one-sided data query on a single object.

    ``pdc_type`` must match the object's element type, mirroring the C
    API's value-pointer typing.
    """
    obj = system.get_object_by_id(obj_id)
    ptype = _coerce_type(pdc_type)
    if ptype is not obj.meta.pdc_type:
        raise QueryTypeError(
            f"object {obj.name!r} is {obj.meta.pdc_type.value}, "
            f"query value declared as {ptype.value}"
        )
    cond = Condition(
        object_name=obj.name, op=_coerce_op(op), pdc_type=ptype, value=value
    )
    return PDCQuery(system=system, node=cond)


def _check_combinable(q1: PDCQuery, q2: PDCQuery) -> None:
    if q1.system is not q2.system:
        raise QueryError("cannot combine queries from different PDC systems")
    if q1.region != q2.region and q1.region is not None and q2.region is not None:
        raise QueryError("cannot combine queries with different region constraints")


def PDCquery_and(q1: PDCQuery, q2: PDCQuery) -> PDCQuery:
    """Intersection of two queries (conditions may target the same object
    or different objects with identical dimensions)."""
    _check_combinable(q1, q2)
    return PDCQuery(
        system=q1.system,
        node=combine_and(q1.node, q2.node),
        region=q1.region or q2.region,
        strategy=q1.strategy or q2.strategy,
        timeout_s=_combine_timeout(q1.timeout_s, q2.timeout_s),
    )


def PDCquery_or(q1: PDCQuery, q2: PDCQuery) -> PDCQuery:
    """Union of two queries."""
    _check_combinable(q1, q2)
    return PDCQuery(
        system=q1.system,
        node=combine_or(q1.node, q2.node),
        region=q1.region or q2.region,
        strategy=q1.strategy or q2.strategy,
        timeout_s=_combine_timeout(q1.timeout_s, q2.timeout_s),
    )


def _combine_timeout(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Combined queries keep the *tighter* budget (min of those set)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def PDCquery_set_region(query: PDCQuery, region: "RegionConstraint") -> None:
    """Attach a spatial constraint: a half-open flat coordinate range, or
    an N-D :class:`HyperSlab` over the objects' logical shape.  Either way
    it need not align with PDC's internal region partitioning (§III-A)."""
    if isinstance(region, HyperSlab):
        query.region = region
        return
    start, stop = int(region[0]), int(region[1])
    if stop <= start:
        raise QueryError(f"empty query region [{start}, {stop})")
    query.region = (start, stop)


def PDCquery_estimate_nhits(query: PDCQuery) -> Tuple[int, int]:
    """Instant (lower, upper) bounds on the hit count from the global
    histograms alone — no storage I/O, no evaluation.

    This is the §III-D2 selectivity estimate exposed to users: exact
    enough to size buffers or decide whether a query is worth running,
    at metadata-lookup cost.  Bounds are per-conjunct sums (OR conjuncts
    may overlap, so the upper bound stays safe but the lower bound is
    taken from the largest single conjunct).
    """
    system = query.system
    total_lower = 0
    total_upper = 0
    domain = None
    for _, conjunct in typed_conjuncts(query.node, system.type_of):
        lower = None
        upper = None
        for name, interval in conjunct.items():
            obj = system.get_object(name)
            domain = obj.n_elements
            lo, hi = obj.meta.global_histogram.estimate_hits(interval)
            # AND: the count is at most the min upper bound; the lower
            # bound of an intersection is not derivable from marginals,
            # except that it cannot exceed any one condition's lower bound
            # only when there is a single condition.
            upper = hi if upper is None else min(upper, hi)
            lower = lo if lower is None else 0
        total_upper += upper or 0
        total_lower = max(total_lower, lower or 0)
    if domain is not None:
        total_upper = min(total_upper, domain)
        if query.region is not None:
            (start, stop), slab = normalize_constraint(query.region, domain)
            cap = slab.n_elements if slab is not None else stop - start
            total_upper = min(total_upper, cap)
            total_lower = 0  # constraint can exclude any fraction
    return total_lower, total_upper


def PDCquery_get_nhits(query: PDCQuery) -> int:
    """Evaluate and return the number of matching elements."""
    res = query.engine.execute(
        query.node,
        want_selection=False,
        region_constraint=query.region,
        strategy=query.strategy,
        timeout_s=query.timeout_s,
    )
    query.last_result = res
    return res.nhits


def PDCquery_get_selection(query: PDCQuery) -> Selection:
    """Evaluate and return the matching coordinates.

    Required before ``PDCquery_get_data*`` (the user allocates space from
    the selection's size)."""
    res = query.engine.execute(
        query.node,
        want_selection=True,
        region_constraint=query.region,
        strategy=query.strategy,
        timeout_s=query.timeout_s,
    )
    query.last_result = res
    assert res.selection is not None
    return res.selection


def PDCquery_get_data(
    system: PDCSystem,
    obj_id: int,
    selection: Selection,
    strategy: Optional[Strategy] = None,
) -> np.ndarray:
    """Load the selected elements of one object into memory.

    The target object may differ from the queried ones (§III-A: *"The
    memory objects may have the same or different data structures from
    those in the query condition"*), as long as dimensions match.
    """
    obj = system.get_object_by_id(obj_id)
    res = QueryEngine(system).get_data(selection, obj.name, strategy=strategy)
    return res.values


def PDCquery_get_data_batch(
    system: PDCSystem,
    obj_id: int,
    selection: Selection,
    batch_size: int,
    strategy: Optional[Strategy] = None,
) -> Iterator[np.ndarray]:
    """Stream the selected elements in batches, for results too large to
    hold in memory at once."""
    obj = system.get_object_by_id(obj_id)
    for res in QueryEngine(system).get_data_batch(
        selection, obj.name, batch_size, strategy=strategy
    ):
        yield res.values


def PDCquery_execute_batch(
    system: PDCSystem,
    queries: List[PDCQuery],
    max_width: Optional[int] = None,
    scheduler=None,
) -> List[QueryResult]:
    """Evaluate several queries in batch windows.

    A region one query of a window reads is a server cache hit for every
    later one (see docs/batching.md); answers are identical to evaluating
    each query alone.  Each query's
    ``last_result`` is set, and the per-query results are returned in
    input order.

    Pass a long-lived :class:`~repro.query.scheduler.QueryScheduler` to
    also reuse its semantic selection cache across calls; the default
    throwaway scheduler runs without one (a per-call cache could never
    hit, and would leak an invalidation hook on the system).
    """
    if not queries:
        return []
    for q in queries:
        if q.system is not system:
            raise QueryError("all batched queries must target the given system")
    from .executor import QuerySpec
    from .scheduler import QueryScheduler

    if scheduler is None:
        scheduler = QueryScheduler(
            system,
            max_width=max_width if max_width is not None else max(1, len(queries)),
            use_selection_cache=False,
        )
    elif scheduler.system is not system:
        raise QueryError("scheduler is bound to a different system")
    elif max_width is not None:
        scheduler.max_width = max_width
    specs = [
        QuerySpec(
            node=q.node,
            region_constraint=q.region,
            strategy=q.strategy,
            timeout_s=q.timeout_s,
        )
        for q in queries
    ]
    results = scheduler.run(specs)
    for q, res in zip(queries, results):
        q.last_result = res
    return results


def PDCquery_get_histogram(system: PDCSystem, obj_id: int) -> GlobalHistogram:
    """The object's global histogram — generated automatically by PDC at
    import time, at no additional query cost."""
    return system.get_object_by_id(obj_id).meta.global_histogram


def PDCquery_tag(system: PDCSystem, name: str, value: object) -> List[int]:
    """Metadata query: ids of all objects carrying tag ``name == value``."""
    matches = system.metadata.query_tags({name: value}, clock=system.client_clock)
    return [system.metadata.get(m).object_id for m in matches]
