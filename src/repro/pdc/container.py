"""Containers: named collections of objects (§II: *"PDC organizes data as a
collection of objects in a number of containers"*)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from ..errors import MetadataError, ObjectNotFoundError

__all__ = ["Container"]


@dataclass
class Container:
    """A named grouping of object names."""

    name: str
    _members: Set[str] = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise MetadataError("container name must be non-empty")

    def add(self, object_name: str) -> None:
        if object_name in self._members:
            raise MetadataError(
                f"object {object_name!r} already in container {self.name!r}"
            )
        self._members.add(object_name)

    def remove(self, object_name: str) -> None:
        try:
            self._members.remove(object_name)
        except KeyError:
            raise ObjectNotFoundError(
                f"object {object_name!r} not in container {self.name!r}"
            ) from None
