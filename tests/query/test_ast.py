"""Query condition trees: construction, DNF, rendering."""

import numpy as np
import pytest

from repro.errors import QueryError, QueryTypeError
from repro.query.ast import (
    AndNode,
    Condition,
    OrNode,
    combine_and,
    combine_or,
    objects_of,
    to_dnf,
    typed_conjuncts,
)
from repro.types import PDCType, QueryOp


def cond(name="e", op=QueryOp.GT, value=2.0):
    return Condition(object_name=name, op=op, pdc_type=PDCType.FLOAT, value=value)


class TestCondition:
    def test_interval(self):
        iv = cond(op=QueryOp.LT, value=3.0).interval
        assert iv.hi == pytest.approx(3.0) and iv.lo is None and not iv.hi_closed

    def test_value_type_checked(self):
        with pytest.raises(QueryTypeError):
            Condition("e", QueryOp.GT, PDCType.INT, 2.5)

    def test_str(self):
        assert str(cond()) == "e > 2"


class TestCombinators:
    def test_and_flattens(self):
        q = combine_and(combine_and(cond("a"), cond("b")), cond("c"))
        assert isinstance(q, AndNode) and len(q.children) == 3

    def test_or_flattens(self):
        q = combine_or(cond("a"), combine_or(cond("b"), cond("c")))
        assert isinstance(q, OrNode) and len(q.children) == 3

    def test_mixed_not_flattened_across_kinds(self):
        q = combine_and(combine_or(cond("a"), cond("b")), cond("c"))
        assert isinstance(q, AndNode) and len(q.children) == 2

    def test_objects_of_dedup_ordered(self):
        q = combine_and(combine_and(cond("b"), cond("a")), cond("b"))
        assert objects_of(q) == ["b", "a"]


class TestDNF:
    def test_single_condition(self):
        assert to_dnf(cond()) == [[cond()]]

    def test_and_one_conjunct(self):
        q = combine_and(cond("a"), cond("b"))
        [conj] = to_dnf(q)
        assert [c.object_name for c in conj] == ["a", "b"]

    def test_or_many_conjuncts(self):
        q = combine_or(cond("a"), cond("b"))
        assert len(to_dnf(q)) == 2

    def test_and_over_or_distributes(self):
        # (a OR b) AND c -> (a AND c) OR (b AND c)
        q = combine_and(combine_or(cond("a"), cond("b")), cond("c"))
        dnf = to_dnf(q)
        assert len(dnf) == 2
        assert [c.object_name for c in dnf[0]] == ["a", "c"]
        assert [c.object_name for c in dnf[1]] == ["b", "c"]

    def test_explosion_guarded(self):
        q = cond("x0")
        for i in range(1, 8):
            q = combine_and(q, combine_or(cond(f"a{i}"), cond(f"b{i}")))
        with pytest.raises(QueryError):
            to_dnf(q)


FLOAT_OBJECTS = {"a": PDCType.FLOAT, "b": PDCType.FLOAT, "e": PDCType.FLOAT}.__getitem__


class TestConjunctIntervals:
    def test_same_object_intersected(self):
        q = combine_and(cond(op=QueryOp.GT, value=1.0), cond(op=QueryOp.LT, value=2.0))
        ((ci, conj),) = typed_conjuncts(q, FLOAT_OBJECTS)
        assert ci == 0
        iv = conj["e"]
        assert iv.lo == 1.0 and iv.hi == 2.0

    def test_contradiction_returns_none(self):
        q = combine_and(cond(op=QueryOp.GT, value=5.0), cond(op=QueryOp.LT, value=3.0))
        assert typed_conjuncts(q, FLOAT_OBJECTS) == []
        # The survivor of an OR keeps its DNF index.
        ((ci, conj),) = typed_conjuncts(combine_or(q, cond("a")), FLOAT_OBJECTS)
        assert ci == 1 and set(conj) == {"a"}

    def test_multiple_objects(self):
        q = combine_and(cond("a"), cond("b", QueryOp.LT, 1.0))
        ((_, conj),) = typed_conjuncts(q, FLOAT_OBJECTS)
        assert list(conj) == ["a", "b"]

    def test_bounds_typed_to_the_object_before_intersection(self):
        """Whatever a leaf declares, its bound becomes a value of the
        object's type first: two DOUBLE bounds that round to the same
        float32 meet as equals instead of as an empty interval."""
        f32 = float(np.float32(2.2))
        lo = Condition("e", QueryOp.GTE, PDCType.DOUBLE, 2.2)
        ((_, conj),) = typed_conjuncts(lo, FLOAT_OBJECTS)
        assert conj["e"].lo == f32
        hi = Condition("e", QueryOp.LTE, PDCType.DOUBLE, float(np.nextafter(f32, 0.0)))
        ((_, conj),) = typed_conjuncts(combine_and(lo, hi), FLOAT_OBJECTS)
        assert (conj["e"].lo, conj["e"].hi) == (f32, f32)
        open_hi = Condition("e", QueryOp.LT, PDCType.DOUBLE, hi.value)
        assert typed_conjuncts(combine_and(lo, open_hi), FLOAT_OBJECTS) == []
        # A float object keeps a DOUBLE bound; an integral one refuses a
        # fractional bound, in any branch of the tree.
        ((_, conj),) = typed_conjuncts(lo, {"e": PDCType.DOUBLE}.__getitem__)
        assert conj["e"].lo == 2.2
        with pytest.raises(QueryTypeError):
            typed_conjuncts(
                combine_or(cond("a"), Condition("e", QueryOp.GT, PDCType.DOUBLE, 2.5)),
                {"a": PDCType.FLOAT, "e": PDCType.INT}.__getitem__,
            )


class TestSerialization:
    def test_str_rendering(self):
        q = combine_and(cond("a"), cond("b", QueryOp.LT, 1.0))
        assert str(q) == "(a > 2 AND b < 1)"
