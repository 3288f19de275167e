"""Traffic-source identities.

The firewall in the paper (DDoS-deflate) rate-limits *per source IP*,
so source identity is the pivot of the whole DOPE evasion story: one
attacker distributing the same aggregate rate over many agents slides
under the per-source threshold.  This module provides a tiny registry
that hands out integer source ids partitioned into populations, so both
the firewall and the metrics layer can attribute traffic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .._validation import check_int, require
from ..workloads.catalog import TrafficClass

__all__ = [
    "SourcePool",
    "SourceRegistry",
]


class SourcePool:
    """A block of source identities belonging to one population.

    Parameters
    ----------
    label:
        Human-readable population name (e.g. ``"botnet"``, ``"alios"``).
    traffic_class:
        The :class:`~repro.workloads.catalog.TrafficClass` of requests
        these sources emit.
    size:
        Number of distinct agents in the pool.
    first_id:
        First id of the contiguous id block (assigned by the registry).
    """

    __slots__ = ("label", "traffic_class", "size", "first_id")

    def __init__(
        self,
        label: str,
        traffic_class: TrafficClass,
        size: int,
        first_id: int,
    ) -> None:
        require(bool(label), "label must be non-empty")
        check_int("size", size, minimum=1)
        check_int("first_id", first_id, minimum=0)
        self.label = label
        self.traffic_class = traffic_class
        self.size = size
        self.first_id = first_id

    @property
    def ids(self) -> range:
        """The contiguous id block of this pool."""
        return range(self.first_id, self.first_id + self.size)

    def contains(self, source_id: int) -> bool:
        """True when *source_id* belongs to this pool."""
        return self.first_id <= source_id < self.first_id + self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SourcePool({self.label!r}, {self.traffic_class.value}, "
            f"ids={self.first_id}..{self.first_id + self.size - 1})"
        )


class SourceRegistry:
    """Allocates non-overlapping source-id blocks to populations."""

    def __init__(self) -> None:
        self._next_id = 0
        self._pools: List[SourcePool] = []
        self._by_label: Dict[str, SourcePool] = {}

    def allocate(
        self, label: str, traffic_class: TrafficClass, size: int
    ) -> SourcePool:
        """Create a new pool of *size* agents under *label*."""
        if label in self._by_label:
            raise ValueError(f"source pool {label!r} already allocated")
        pool = SourcePool(label, traffic_class, size, self._next_id)
        self._next_id += size
        self._pools.append(pool)
        self._by_label[label] = pool
        return pool

    def get(self, label: str) -> SourcePool:
        """Return the pool registered under *label*."""
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(
                f"no source pool {label!r}; known: {sorted(self._by_label)}"
            ) from None

    @property
    def pools(self) -> List[SourcePool]:
        """All allocated pools, in allocation order."""
        return list(self._pools)
