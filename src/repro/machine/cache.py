"""Private cache model.

DASH's first-level caches are direct-mapped with 16-byte lines; the
conflict-miss pathologies the paper reports (every 8th/16th column of a
power-of-two array mapping to the same cache location) are artifacts of
exactly this geometry, so the simulator models it faithfully.

The direct-mapped simulation is exact and fully vectorized: within each
set, an access hits iff the previous access to that set (by the same
processor) touched the same line and nothing invalidated it in between
(invalidation is overlaid by :mod:`repro.machine.coherence`).  The
set-associative LRU variant is exact and vectorized too: it is one
threshold on :func:`stack_distances`.

Each per-access question of the cache and coherence models is about
the earlier accesses of one group (same set and processor, same line,
...).  :func:`group_index` sorts the stream once per group key, with
each key narrowed so that NumPy radix-sorts keys below 2^16; two scans
over that order, :func:`prev_in_group` and :func:`last_flagged_before`,
answer the rest in int32 positions (int64 only for streams of 2^31
accesses or more), and :func:`last_in_group` gives each group's last
(flagged) position, where a repeated stream wraps round to.
:func:`direct_mapped_order` returns the (set, processor) order the tag
match was read along, in which a hit's previous entry is the
processor's previous touch of the line.  :func:`stack_distances` adds
one merge count over a group order, the LRU stack distance that both
the set-associative hits and :mod:`repro.machine.locality`'s reuse
distances read.

The stream may come in narrow integer dtypes (the trace stores int32
addresses and int8 processor ids).  Addresses are only divided and
reduced modulo here, which stays in range; a value that is multiplied
is widened to int64 first.
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
        if min(self.size_bytes, self.line_bytes, self.assoc) <= 0:
            raise ValueError("cache parameters must be positive")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ValueError("cache size must be a multiple of line*assoc")

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


def _positions(n: int) -> type:
    """The dtype of stream positions (and -1) in a stream of ``n``."""
    return np.int32 if n < 2**31 else np.int64


def prev_in_group(order: np.ndarray, start: np.ndarray) -> np.ndarray:
    """For each stream position (in stream order), the previous position
    of its :func:`group_index` group, or -1 for the group's first."""
    prev = np.empty(len(order), dtype=_positions(len(order)))
    prev[1:] = order[:-1]
    prev[start] = -1
    out = np.empty_like(prev)
    out[order] = prev
    return out


def last_flagged_before(
    order: np.ndarray, start: np.ndarray, flag: np.ndarray
) -> np.ndarray:
    """For each stream position i (in stream order), the largest position
    j < i of i's :func:`group_index` group with ``flag[j]``, or -1."""
    n = len(order)
    flagged = flag[order]
    # Running max over the flagged sorted indices and the group starts:
    # taken at k - 1 for a non-start k, it lies in k's group before k,
    # and is a flagged index unless it is the group's unflagged first.
    last = np.arange(n)
    last[~(flagged | start)] = -1
    np.maximum.accumulate(last, out=last)
    flagged = flagged[last]
    prev = order[last]
    del last
    prev[~flagged] = -1
    prev[:-1][start[1:]] = -1
    out = np.empty(n, dtype=_positions(n))
    out[order[1:]] = prev[:-1]
    out[order[:1]] = -1
    return out


def last_in_group(
    order: np.ndarray, start: np.ndarray, flag: "np.ndarray | None" = None
) -> np.ndarray:
    """The last position of every :func:`group_index` group, in group
    order, or with ``flag`` its last position j with ``flag[j]``, -1 if
    it has none.  ``order[start]`` gives the first positions."""
    if flag is None:
        return order[np.roll(start, -1)]
    return np.maximum.reduceat(np.where(flag[order], order, -1),
                               np.flatnonzero(start))


def repeat_rounds(
    first: np.ndarray, later: np.ndarray, rounds: int
) -> np.ndarray:
    """Per-access flags of ``rounds`` back-to-back rounds of a stream:
    ``first`` for the first round, then ``later`` for each other."""
    return np.concatenate([first] + [later] * (rounds - 1))


def direct_mapped_order(
    proc: np.ndarray, line: np.ndarray, cfg: CacheConfig, rounds: int = 1
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tag match of a direct-mapped cache along its (set, processor)
    group order.

    Returns ``(hit, order, hit_in_order)``: the :func:`direct_mapped_hits`
    flags of ``line`` (in stream order, ``rounds`` as there), the group
    order, and the first round's flags along it.  Along the order a hit's
    previous entry is the processor's previous touch of the line, and
    every group opens with a miss."""
    order, start = group_index(cfg.set_of(line), proc)
    in_order = np.zeros(len(order), dtype=bool)
    ls = line[order]
    in_order[1:] = (ls[1:] == ls[:-1]) & ~start[1:]
    del ls
    hit = np.empty_like(in_order)
    hit[order] = in_order
    if rounds > 1:
        first, last = order[start], last_in_group(order, start)
        later = hit.copy()
        later[first] = line[last] == line[first]
        hit = repeat_rounds(hit, later, rounds)
    return hit, order, in_order


def direct_mapped_hits(
    proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig, rounds: int = 1
) -> np.ndarray:
    """Tag-match hit flags for every access of a merged multi-processor
    stream (in stream order), ignoring coherence.

    With ``rounds`` > 1 the flags are those of the stream repeated
    ``rounds`` times back-to-back.  Every round after the first differs
    from it only at each (set, processor) group's first access, whose
    previous access wraps round to the group's last one."""
    return direct_mapped_order(proc, cfg.line_of(addr), cfg, rounds)[0]


def stack_distances(line: np.ndarray, *group: np.ndarray) -> np.ndarray:
    """LRU stack distance of every access (in stream order) within its
    ``group``: how many distinct other lines the group touched since its
    previous access to ``line``, or -1 on its first touch of the line.

    In group order (the stream sorted by ``group``, positions ascending),
    let p_s be the index of access s's previous same-line access, or -1.
    Each line touched between p_s and s is counted once, at its first
    access t after p_s, which is the one with p_t < p_s; every t <= p_s
    also has p_t < p_s, so the distance is #{t < s : p_t < p_s} - p_s - 1.
    A bottom-up merge sort of p counts that exactly, because non-cold p
    values are distinct: when two sorted blocks merge, an element of the
    right block moves past the left-block elements smaller than it.
    """
    n = len(line)
    by_group = group_index(*group)[0] if group else np.arange(n)
    prev = prev_in_group(*group_index(*group, line))
    # Positions and counts stay below n: narrow them to halve the
    # memory traffic of the merge levels.
    pos = np.int32 if n < 2**31 else np.int64
    rank = np.empty(n, dtype=pos)
    rank[by_group] = np.arange(n, dtype=pos)
    p = np.where(prev >= 0, rank[prev], -1)[by_group]
    del prev, rank
    v = p + 1  # 0 on cold accesses, whose own counts are never read
    less = np.zeros(n, dtype=pos)  # #{t < s : p_t < p_s}, moved with v
    k = np.arange(n)
    for level in range(max(n - 1, 0).bit_length()):
        # Sorted blocks of b merge into blocks of 2b (sorting by block
        # start k & -2b, then v).  perm[k] is where the element now at k
        # was: in the right block when bit `level` of perm[k] is set, and
        # then it passed k - perm[k] + b elements of the left block.
        b = 1 << level
        perm = np.argsort((k & -2 * b) * n + v, kind="stable")
        v = v[perm]
        less = less[perm]
        moved = k - perm + b
        perm >>= level
        perm &= 1
        moved *= perm
        del perm
        less += moved
        del moved
    by_value = np.empty(n + 1, dtype=pos)
    by_value[v] = less
    del v, less
    out = np.empty(n, dtype=np.int64)
    out[by_group] = np.where(p >= 0, by_value[p + 1] - p - 1, -1)
    return out


def assoc_lru_hits(
    proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig, rounds: int = 1
) -> np.ndarray:
    """LRU set-associative tag-match hit flags for every access of a
    merged multi-processor stream (in stream order), ignoring coherence.
    By LRU's stack property an A-way set hits exactly when the processor
    touched fewer than A other lines of the set since its previous
    access to the line.

    With ``rounds`` > 1 the flags are those of the stream repeated
    ``rounds`` times.  The distances are taken over two copies: every
    later round sees the same lines since its previous access as the
    second does."""
    n = len(addr)
    if rounds > 1:
        proc, addr = np.tile(proc, 2), np.tile(addr, 2)
    line = cfg.line_of(addr)
    dist = stack_distances(line, cfg.set_of(line), proc)
    hit = (dist >= 0) & (dist < cfg.assoc)
    if rounds == 1:
        return hit
    return repeat_rounds(hit[:n], hit[n:], rounds)
