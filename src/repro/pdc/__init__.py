"""The object-centric data management substrate (PDC, §II): containers,
objects, regions, metadata service, servers, and the deployment object."""

from .container import Container
from .metadata import ObjectMeta
from .metaserver import MetadataService
from .observability import SystemSnapshot, report, snapshot
from .placement import assign_region_ids
from .region import partition, region_key
from .server import PDCServer
from .system import PDCConfig, PDCSystem, ReplicaGroup, StoredObject

__all__ = [
    "Container",
    "ObjectMeta",
    "MetadataService",
    "SystemSnapshot",
    "report",
    "snapshot",
    "assign_region_ids",
    "partition",
    "region_key",
    "PDCServer",
    "PDCConfig",
    "PDCSystem",
    "ReplicaGroup",
    "StoredObject",
]
