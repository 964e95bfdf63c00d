"""PDC-Query: the parallel query service (§III) — condition trees, the
paper's C-style API, selections, strategies, and the query engine."""

from ..strategies import Strategy, strategy_from_env
from .api import (
    PDCQuery,
    PDCquery_and,
    PDCquery_create,
    PDCquery_execute_batch,
    PDCquery_get_data,
    PDCquery_get_data_batch,
    PDCquery_get_histogram,
    PDCquery_estimate_nhits,
    PDCquery_get_nhits,
    PDCquery_get_selection,
    PDCquery_or,
    PDCquery_set_region,
    PDCquery_tag,
)
from .ast import AndNode, Condition, OrNode, QueryNode
from .async_client import AsyncQueryClient
from .executor import (
    BatchResult,
    GetDataResult,
    MetaDataQueryResult,
    QueryEngine,
    QueryResult,
    QuerySpec,
)
from .planner import (
    PlanEstimate,
    StepEstimate,
    choose_get_data_strategy,
    choose_strategy,
    explain,
)
from .scheduler import QueryScheduler, SelectionCache, SelectionCacheStats
from .selection import Selection

__all__ = [
    "PDCQuery",
    "PDCquery_and",
    "PDCquery_create",
    "PDCquery_execute_batch",
    "PDCquery_get_data",
    "PDCquery_get_data_batch",
    "PDCquery_get_histogram",
    "PDCquery_estimate_nhits",
    "PDCquery_get_nhits",
    "PDCquery_get_selection",
    "PDCquery_or",
    "PDCquery_set_region",
    "PDCquery_tag",
    "AndNode",
    "Condition",
    "OrNode",
    "QueryNode",
    "AsyncQueryClient",
    "BatchResult",
    "GetDataResult",
    "MetaDataQueryResult",
    "PlanEstimate",
    "StepEstimate",
    "choose_get_data_strategy",
    "choose_strategy",
    "explain",
    "QueryEngine",
    "QueryResult",
    "QueryScheduler",
    "QuerySpec",
    "Selection",
    "SelectionCache",
    "SelectionCacheStats",
    "Strategy",
    "strategy_from_env",
]
