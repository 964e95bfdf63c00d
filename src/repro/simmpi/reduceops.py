"""Reduction operator for the simulated MPI runtime.

Mirrors mpi4py's ``MPI.SUM`` constant with a plain Python callable that
combines two values pairwise; it works elementwise on numpy arrays as well
as on scalars, matching mpi4py's pickle-based lower-case ``reduce``
semantics.  ``reduce`` accepts any such callable.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["SUM", "reduce_sequence"]

ReduceOp = Callable[[Any, Any], Any]


def SUM(a: Any, b: Any) -> Any:
    return a + b


def reduce_sequence(values: Sequence[Any], op: ReduceOp) -> Any:
    """Left fold of ``op`` over a non-empty sequence, in rank order —
    deterministic regardless of thread scheduling."""
    if not values:
        raise ValueError("cannot reduce an empty sequence")
    acc = values[0]
    for v in values[1:]:
        acc = op(acc, v)
    return acc
