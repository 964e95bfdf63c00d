"""C-style PDC object-management shims.

§II summarizes PDC's existing object interface from the prior papers
([5], [6]): ``PDCinit``, container/property/object creation, tag and data
operations.  PDC-Query (Fig. 1) builds on those.  These shims complete the
ODMS surface so code translated from C PDC programs reads one-to-one::

    pdc = PDCinit("pdc")
    cont = PDCcont_create(pdc, "c1")
    prop = PDCprop_create(pdc)
    PDCprop_set_obj_dims(prop, (1_000_000,))
    PDCprop_set_obj_type(prop, "float")
    obj_id = PDCobj_create(pdc, cont, "Energy", prop)
    PDCobj_put_data(pdc, obj_id, my_array)
    PDCobj_put_tag(pdc, obj_id, "run", 42)

They are thin veneers over :class:`~repro.pdc.system.PDCSystem`; the
Pythonic interface remains the primary API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..errors import PDCError, QueryTypeError
from ..types import PDCType, check_timeout
from .system import PDCConfig, PDCSystem

__all__ = [
    "PDCinit",
    "PDCcont_create",
    "PDCprop_create",
    "PDCprop_set_obj_dims",
    "PDCprop_set_obj_type",
    "PDCobj_create",
    "PDCobj_put_data",
    "PDCobj_get_data",
    "PDCobj_put_tag",
    "PDCobj_get_tag",
    "PDCobj_del",
    "PDCquery_set_timeout",
    "PDCclose",
    "ObjectProperty",
]


@dataclass
class ObjectProperty:
    """An object-creation property handle (``pdc_prop_t``)."""

    dims: Optional[Tuple[int, ...]] = None
    pdc_type: Optional[PDCType] = None
    tags: Dict[str, object] = field(default_factory=dict)


def PDCinit(name: str = "pdc", config: Optional[PDCConfig] = None) -> PDCSystem:
    """Initialize a PDC deployment (``PDCinit``)."""
    return PDCSystem(config)


def PDCcont_create(pdc: PDCSystem, cont_name: str) -> str:
    """Create a container; returns its handle (name)."""
    pdc.create_container(cont_name)
    return cont_name


def PDCprop_create(pdc: PDCSystem) -> ObjectProperty:
    """Create an object-creation property."""
    return ObjectProperty()


def PDCprop_set_obj_dims(prop: ObjectProperty, dims: Tuple[int, ...]) -> None:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d <= 0 for d in dims):
        raise PDCError(f"bad object dims {dims}")
    prop.dims = dims


def PDCprop_set_obj_type(prop: ObjectProperty, pdc_type: Union[PDCType, str]) -> None:
    prop.pdc_type = pdc_type if isinstance(pdc_type, PDCType) else PDCType(pdc_type)


def PDCobj_create(
    pdc: PDCSystem, cont: str, obj_name: str, prop: ObjectProperty
) -> int:
    """Create an (initially zero-filled) object from a property; returns
    the object id."""
    if prop.dims is None or prop.pdc_type is None:
        raise PDCError("object property needs dims and type before create")
    data = np.zeros(prop.dims, dtype=prop.pdc_type.np_dtype)
    obj = pdc.create_object(obj_name, data, tags=dict(prop.tags), container=cont)
    return obj.meta.object_id


def PDCobj_put_data(
    pdc: PDCSystem, obj_id: int, data: np.ndarray, offset: int = 0
) -> None:
    """Write data into an object (maintains histograms/indexes/replicas
    like any update)."""
    obj = pdc.get_object_by_id(obj_id)
    data = np.asarray(data)
    if data.dtype != obj.data.dtype:
        raise QueryTypeError(
            f"object {obj.name!r} is {obj.data.dtype}, payload is {data.dtype}"
        )
    pdc.update_object_region(obj.name, offset, data.reshape(-1))


def PDCobj_get_data(
    pdc: PDCSystem, obj_id: int, offset: int = 0, count: Optional[int] = None
) -> np.ndarray:
    """Read a contiguous slice of an object's (flattened) data."""
    obj = pdc.get_object_by_id(obj_id)
    stop = obj.n_elements if count is None else offset + count
    if not (0 <= offset <= stop <= obj.n_elements):
        raise PDCError(f"read [{offset}, {stop}) out of bounds for {obj.name!r}")
    return obj.data[offset:stop].copy()


def PDCobj_put_tag(pdc: PDCSystem, obj_id: int, name: str, value: object) -> None:
    """Attach/overwrite a key-value tag."""
    obj = pdc.get_object_by_id(obj_id)
    obj.meta.tags[name] = value


def PDCobj_get_tag(pdc: PDCSystem, obj_id: int, name: str) -> object:
    obj = pdc.get_object_by_id(obj_id)
    try:
        return obj.meta.tags[name]
    except KeyError:
        raise PDCError(f"object {obj.name!r} has no tag {name!r}") from None


def PDCobj_del(pdc: PDCSystem, obj_id: int) -> None:
    """Delete an object: data/index/HDF5 files, metadata, container
    membership, replicas that cover it, and cache entries."""
    obj = pdc.get_object_by_id(obj_id)
    name = obj.name
    for key_name in list(pdc.replicas):
        group = pdc.replicas[key_name]
        if name in {key_name, *group.replica.companions}:
            pdc.drop_sorted_replica(key_name)
    for path in (obj.file_path, obj.hdf5_path, f"/pdc/index/{name}"):
        if pdc.pfs.exists(path):
            pdc.pfs.delete(path)
    from .region import region_key

    for server in pdc.servers:
        for rid in range(obj.n_regions):
            server.cache.invalidate(region_key(name, rid))
            server.cache.invalidate(region_key(name, rid, replica="idx"))
        server.meta_cached.discard(name)
    pdc.metadata.delete(name)
    pdc.containers[obj.meta.container].remove(name)
    del pdc.objects[name]


def PDCquery_set_timeout(query, timeout_s: float) -> None:
    """Bound a query's *simulated* execution time.  A query exceeding the
    budget returns a partial result flagged ``timed_out`` (a subset of
    the true answer) instead of running on — see docs/robustness.md.
    ``None`` removes the budget; anything but a finite number above zero
    is a :class:`PDCError`.  ``query`` is a
    :class:`~repro.query.api.PDCQuery` (duck-typed here so the object
    layer need not import the query layer)."""
    query.timeout_s = check_timeout(timeout_s)


def PDCclose(pdc: PDCSystem) -> None:
    """Tear down a deployment (caches dropped; metadata checkpointed for
    the next start, §II)."""
    pdc.metadata.checkpoint()
    pdc.drop_all_caches()
