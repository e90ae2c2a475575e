"""Content-addressed artifact cache: an in-memory LRU.

Keys are SHA-256 digests built by the passes
(:mod:`repro.pipeline.fingerprint`); values are arbitrary pass
artifacts.  The cache lives and dies with its process: each session
(and each batch worker process) keeps its own.  Finished point results
persist across processes in the result store
(:mod:`repro.pipeline.store`), the repo's one disk layer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict

from repro import obs

__all__ = ["MISS", "ArtifactCache", "CacheStats"]

MISS = object()
"""Sentinel returned by :meth:`ArtifactCache.get` on a miss."""

DEFAULT_CAPACITY = 256


@dataclass
class CacheStats:
    """Counters for one cache instance (always on, unlike obs)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


class ArtifactCache:
    """LRU over ``key -> artifact``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._mem: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        return key in self._mem

    def get(self, key: str) -> Any:
        """The cached artifact, or :data:`MISS`."""
        if key in self._mem:
            self._mem.move_to_end(key)
            self.stats.hits += 1
            obs.inc("pipeline.cache.hits")
            return self._mem[key]
        self.stats.misses += 1
        obs.inc("pipeline.cache.misses")
        return MISS

    def put(self, key: str, value: Any) -> None:
        self.stats.stores += 1
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)
            self.stats.evictions += 1
            obs.inc("pipeline.cache.evictions")

    def clear(self) -> None:
        """Drop every cached artifact."""
        self._mem.clear()
