"""PDC-Query: a parallel query service for object-centric data management
systems.

Reproduction of Tang, Byna, Dong & Koziol, *"Parallel Query Service for
Object-centric Data Management Systems"*, IPDPS 2020.  The package builds
every system the paper depends on — a simulated Lustre-like parallel file
system with a calibrated cost model, the PDC object-management substrate
(in-process servers whose plan broadcast and result gather are priced on
simulated clocks), mergeable global histograms (Algorithm 1),
WAH bitmap indexes, sorted replicas — and the PDC-Query engine on top.

Quickstart::

    import numpy as np
    from repro import PDCConfig, PDCSystem, PDCquery_create, PDCquery_get_nhits

    system = PDCSystem(PDCConfig(n_servers=4, region_size_bytes=1 << 20))
    energy = system.create_object("energy", np.random.default_rng(0)
                                  .gamma(2.0, 0.7, 1 << 18).astype(np.float32))
    q = PDCquery_create(system, energy.meta.object_id, ">", "float", 2.0)
    print(PDCquery_get_nhits(q))
"""

from .errors import (
    MetadataError,
    ObjectNotFoundError,
    PDCError,
    QueryError,
    QueryShapeError,
    QueryTimeoutError,
    QueryTypeError,
    RegionUnavailableError,
    SelectionError,
    StorageError,
)
from .faults import FaultConfig, FaultPlan
from .interval import Interval
from .obs import MetricsRegistry, Tracer
from .pdc import PDCConfig, PDCSystem
from .query import (
    AsyncQueryClient,
    PDCQuery,
    PDCquery_and,
    PDCquery_create,
    PDCquery_get_data,
    PDCquery_get_data_batch,
    PDCquery_get_histogram,
    PDCquery_estimate_nhits,
    PDCquery_get_nhits,
    PDCquery_get_selection,
    PDCquery_or,
    PDCquery_set_region,
    PDCquery_tag,
    QueryEngine,
    Selection,
)
from .pdc.capi import PDCquery_set_timeout
from .service import QueryService, ServiceConfig, Tenant
from .strategies import Strategy
from .types import GB, KB, MB, TB, PDCType, QueryOp

__version__ = "1.0.0"

__all__ = [
    "MetadataError",
    "ObjectNotFoundError",
    "PDCError",
    "QueryError",
    "QueryShapeError",
    "QueryTypeError",
    "SelectionError",
    "StorageError",
    "QueryTimeoutError",
    "RegionUnavailableError",
    "FaultConfig",
    "FaultPlan",
    "Interval",
    "MetricsRegistry",
    "Tracer",
    "PDCConfig",
    "PDCSystem",
    "PDCQuery",
    "PDCquery_and",
    "PDCquery_create",
    "PDCquery_get_data",
    "PDCquery_get_data_batch",
    "PDCquery_get_histogram",
    "PDCquery_estimate_nhits",
    "PDCquery_get_nhits",
    "PDCquery_get_selection",
    "PDCquery_or",
    "PDCquery_set_region",
    "PDCquery_set_timeout",
    "PDCquery_tag",
    "QueryEngine",
    "Selection",
    "Strategy",
    "QueryService",
    "ServiceConfig",
    "Tenant",
    "AsyncQueryClient",
    "GB",
    "KB",
    "MB",
    "TB",
    "PDCType",
    "QueryOp",
    "__version__",
]
