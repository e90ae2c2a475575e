"""DASH machine configurations.

The experiments run on scaled-down problem sizes, which keeps the
figure suite fast (the paper-size runs are tracked in ROADMAP.md), so
the machine is scaled with them: what matters for the paper's effects
is the *ratio* of array size to cache size (conflict misses), of line
size to element size (false sharing/spatial locality), and of block
size to page size (NUMA homing).  :func:`scaled_dash`
keeps those ratios while shrinking absolute sizes; latency ratios stay
at DASH's 1:30:100.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.machine.cache import CacheConfig
from repro.machine.cost import CostParams
from repro.machine.numa import NumaConfig


@dataclass(frozen=True)
class DashConfig:
    """One simulated machine instance.

    ``l2`` optionally adds DASH's private second-level cache (the
    scaled experiment machines run L1-only by default; the L2 ablation
    benchmark shows the shapes persist with it on).
    """

    nprocs: int
    cache: CacheConfig
    numa: NumaConfig
    cost: CostParams = field(default_factory=CostParams)
    word_bytes: int = 8
    l2: Optional[CacheConfig] = None

    def with_procs(self, nprocs: int) -> "DashConfig":
        return replace(self, nprocs=nprocs)

    def fingerprint(self) -> str:
        """Stable SHA-256 over the full machine geometry.

        Covers everything the simulator reads — processor count, cache
        and L2 geometry, NUMA homing parameters, every cost-model
        latency, and the word size — so two configs share a fingerprint
        iff they are behaviourally identical.  The persistent result
        store keys on it, and ``repro diff`` uses it to attribute run
        divergences to machine-config changes.
        """
        payload = asdict(self)
        h = hashlib.sha256()
        h.update(b"dash-config-v1\x1f")
        h.update(json.dumps(payload, sort_keys=True,
                            default=repr).encode("utf-8"))
        return h.hexdigest()

    def with_l2(self, size_bytes: Optional[int] = None) -> "DashConfig":
        """Add a private L2 (default: 4x the L1, DASH's 64KB:256KB
        ratio)."""
        size = size_bytes or 4 * self.cache.size_bytes
        return replace(
            self,
            l2=CacheConfig(size_bytes=size,
                           line_bytes=self.cache.line_bytes),
        )


def dash_machine(nprocs: int = 32) -> DashConfig:
    """The full-size DASH: 64KB direct-mapped L1 + 256KB direct-mapped
    L2, 16B lines, 4KB pages, 4-processor clusters."""
    return DashConfig(
        nprocs=nprocs,
        cache=CacheConfig(size_bytes=64 * 1024, line_bytes=16, assoc=1),
        numa=NumaConfig(page_bytes=4096, cluster_size=4),
        l2=CacheConfig(size_bytes=256 * 1024, line_bytes=16, assoc=1),
    )


def scaled_dash(
    nprocs: int,
    scale: int,
    line_bytes: int = 16,
    word_bytes: int = 8,
    page_bytes: Optional[int] = None,
    cost: Optional[CostParams] = None,
) -> DashConfig:
    """DASH with the cache size divided by ``scale`` (problem sizes in
    the benchmarks are divided by a matching factor, preserving the
    array/cache ratio that drives capacity and conflict behaviour).

    The cache line is *not* scaled: multi-word lines are the mechanism
    behind false sharing and spatial locality, and the benchmarks keep
    real element sizes.  The page size defaults to a proportional
    scaling but can be pinned explicitly — what matters for first-touch
    NUMA effects is the ratio of page size to the per-processor
    partition's contiguous runs, which each experiment documents.
    """
    cache_bytes = max(line_bytes * 16, (64 * 1024) // scale)
    if page_bytes is None:
        page_bytes = max(line_bytes * 4, 4096 // scale)
    return DashConfig(
        nprocs=nprocs,
        cache=CacheConfig(size_bytes=cache_bytes, line_bytes=line_bytes),
        numa=NumaConfig(page_bytes=page_bytes, cluster_size=4),
        cost=cost or CostParams(),
        word_bytes=word_bytes,
    )
