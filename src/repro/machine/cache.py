"""Private cache model.

DASH's first-level caches are direct-mapped with 16-byte lines; the
conflict-miss pathologies the paper reports (every 8th/16th column of a
power-of-two array mapping to the same cache location) are artifacts of
exactly this geometry, so the simulator models it faithfully.

The direct-mapped simulation is exact and fully vectorized: within each
set, an access hits iff the previous access to that set (by the same
processor) touched the same line and nothing invalidated it in between
(invalidation is overlaid by :mod:`repro.machine.coherence`).  A small
set-associative LRU variant is provided for model-sensitivity tests.

Each per-access question of the cache and coherence models is about
the earlier accesses of one group (same set and processor, same line,
...).  :func:`group_index` sorts the stream once per group key, with
each key narrowed so that NumPy radix-sorts keys below 2^16; two scans
over that order, :func:`prev_in_group` and :func:`last_flagged_before`,
answer the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one processor's private cache."""

    size_bytes: int
    line_bytes: int = 16
    assoc: int = 1

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError("cache size must be a multiple of line*assoc")
        for v in (self.size_bytes, self.line_bytes, self.assoc):
            if v <= 0:
                raise ValueError("cache parameters must be positive")

    @property
    def nlines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def nsets(self) -> int:
        return self.nlines // self.assoc

    def line_of(self, addr: np.ndarray) -> np.ndarray:
        return addr // self.line_bytes

    def set_of(self, line: np.ndarray) -> np.ndarray:
        return line % self.nsets


_NARROW = [np.iinfo(t) for t in (np.uint8, np.int8, np.uint16, np.int16,
                                  np.uint32, np.int32)]


def _narrow(key: np.ndarray) -> np.ndarray:
    """``key`` in the smallest integer dtype holding its min and max."""
    if len(key):
        lo, hi = int(key.min()), int(key.max())
        for info in _NARROW:
            if info.min <= lo and hi <= info.max:
                return key.astype(info.dtype, copy=False)
    return key


def group_index(*keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the positions of a stream by equal ``keys``.

    Returns ``(order, start)``.  ``order`` is the stable sort of the
    stream positions by ``keys[0]``, then ``keys[1]``, ..., so each
    group is one run of ``order`` with its positions ascending;
    ``start[k]`` is True where ``order[k]`` opens a new group.
    """
    narrow = [_narrow(np.asarray(k)) for k in keys]
    order = np.lexsort(narrow[::-1])
    start = np.zeros(len(order), dtype=bool)
    start[:1] = True
    for k in narrow:
        ks = k[order]
        start[1:] |= ks[1:] != ks[:-1]
    return order, start


def prev_in_group(order: np.ndarray, start: np.ndarray) -> np.ndarray:
    """For each stream position (in stream order), the previous position
    of its :func:`group_index` group, or -1 for the group's first."""
    prev = np.roll(order, 1)
    prev[start] = -1
    out = np.empty_like(prev)
    out[order] = prev
    return out


def last_flagged_before(
    order: np.ndarray, start: np.ndarray, flag: np.ndarray
) -> np.ndarray:
    """For each stream position i (in stream order), the largest position
    j < i of i's :func:`group_index` group with ``flag[j]``, or -1."""
    flagged = flag[order]
    k = np.arange(len(order))
    # Running max over the flagged sorted indices and the group starts,
    # shifted by one: at a non-start k it lies in k's group before k, and
    # is a flagged index unless it is the group's unflagged first.
    last = np.roll(np.maximum.accumulate(np.where(flagged | start, k, -1)), 1)
    prev = np.where(flagged[last] & ~start, order[last], -1)
    out = np.empty_like(prev)
    out[order] = prev
    return out


def direct_mapped_hits(
    proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig
) -> np.ndarray:
    """Tag-match hit flags for every access of a merged multi-processor
    stream (in stream order), ignoring coherence."""
    line = cfg.line_of(addr)
    prev = prev_in_group(*group_index(cfg.set_of(line), proc))
    return (prev >= 0) & (line[prev] == line)


def assoc_lru_hits(
    proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig
) -> np.ndarray:
    """Exact LRU set-associative hit flags (Python per (proc,set) group;
    use only on small traces / sensitivity tests)."""
    n = len(addr)
    line = cfg.line_of(addr)
    set_idx = cfg.set_of(line)
    hits = np.zeros(n, dtype=bool)
    state: dict = {}
    for i in range(n):
        key = (int(proc[i]), int(set_idx[i]))
        ways = state.setdefault(key, [])
        ln = int(line[i])
        if ln in ways:
            ways.remove(ln)
            ways.append(ln)
            hits[i] = True
        else:
            ways.append(ln)
            if len(ways) > cfg.assoc:
                ways.pop(0)
    return hits
