"""Query condition trees.

§III-C: *"we use a tree structure to store and represent the query
conditions, which allows for chaining an unlimited number of conditions"*.
Leaves are simple ``object <op> value`` conditions; internal nodes are
AND/OR combinators.  The planner consumes the disjunctive normal form
(each conjunct is a per-object interval map), which is how the paper's
engine evaluates: conditions object-by-object in selectivity order, with
OR results merged and deduplicated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..errors import QueryError
from ..interval import Interval
from ..types import PDCType, QueryOp, Scalar, check_value_type

__all__ = ["Condition", "AndNode", "OrNode", "QueryNode", "Conjunct"]


@dataclass(frozen=True)
class Condition:
    """Leaf: ``object_name <op> value`` (cf. ``PDCquery_create``)."""

    object_name: str
    op: QueryOp
    pdc_type: PDCType
    value: Scalar

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", check_value_type(self.value, self.pdc_type))

    @property
    def interval(self) -> Interval:
        return Interval.from_op(self.op, self.value)

    def __str__(self) -> str:
        return f"{self.object_name} {self.op.value} {self.value:g}"


@dataclass(frozen=True)
class AndNode:
    """Intersection of child conditions (``PDCquery_and``)."""

    children: Tuple["QueryNode", ...]

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class OrNode:
    """Union of child conditions (``PDCquery_or``)."""

    children: Tuple["QueryNode", ...]

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


QueryNode = Union[Condition, AndNode, OrNode]

#: One conjunct of the DNF: object name → intersected interval.
Conjunct = Dict[str, Interval]


def combine_and(a: QueryNode, b: QueryNode) -> QueryNode:
    """AND two trees, flattening nested ANDs."""
    left = a.children if isinstance(a, AndNode) else (a,)
    right = b.children if isinstance(b, AndNode) else (b,)
    return AndNode(left + right)


def combine_or(a: QueryNode, b: QueryNode) -> QueryNode:
    """OR two trees, flattening nested ORs."""
    left = a.children if isinstance(a, OrNode) else (a,)
    right = b.children if isinstance(b, OrNode) else (b,)
    return OrNode(left + right)


def objects_of(node: QueryNode) -> List[str]:
    """All object names referenced, depth-first order, deduplicated."""
    out: List[str] = []

    def walk(n: QueryNode) -> None:
        if isinstance(n, Condition):
            if n.object_name not in out:
                out.append(n.object_name)
        else:
            for c in n.children:
                walk(c)

    walk(node)
    return out


def to_dnf(node: QueryNode) -> List[List[Condition]]:
    """Flatten a condition tree to a list of conjuncts (lists of leaves).

    Size is exponential in pathological trees; scientific queries are tiny
    (the paper's largest has 4 conditions), so a guard of 64 conjuncts is
    ample.
    """
    if isinstance(node, Condition):
        return [[node]]
    if isinstance(node, AndNode):
        parts = [to_dnf(c) for c in node.children]
        product = []
        for combo in itertools.product(*parts):
            product.append([leaf for conj in combo for leaf in conj])
            if len(product) > 64:
                raise QueryError("query too complex: DNF exceeds 64 conjuncts")
        return product
    if isinstance(node, OrNode):
        out: List[List[Condition]] = []
        for c in node.children:
            out.extend(to_dnf(c))
            if len(out) > 64:
                raise QueryError("query too complex: DNF exceeds 64 conjuncts")
        return out
    raise QueryError(f"bad query node {node!r}")


def typed_conjuncts(
    node: QueryNode, type_of: Callable[[str], PDCType]
) -> List[Tuple[int, Conjunct]]:
    """The one gate between a condition tree and every evaluator:
    ``(DNF conjunct index, object → interval)`` per satisfiable conjunct.

    Each leaf's bound is typed to its object's element type
    (:meth:`Interval.typed`; ``type_of`` maps object name → type) *before*
    the per-object intersection, so two bounds that round to one value meet
    as equals.  A conjunct whose conditions contradict each other
    (``x > 5 AND x < 3``) matches nothing and is dropped.
    """
    out: List[Tuple[int, Conjunct]] = []
    for ci, leaves in enumerate(to_dnf(node)):
        conjunct: Conjunct = {}
        for leaf in leaves:
            iv: Optional[Interval] = leaf.interval.typed(type_of(leaf.object_name))
            if leaf.object_name in conjunct:
                iv = conjunct[leaf.object_name].intersect(iv)
                if iv is None:
                    break
            conjunct[leaf.object_name] = iv
        else:
            out.append((ci, conjunct))
    return out
