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
processor's previous touch of the line.  :func:`stack_distances` gives
the LRU stack distance over a group order, which both the
set-associative hits and :mod:`repro.machine.locality`'s reuse
distances read.  It counts cold accesses and immediate repeats with a
prefix sum, peels the rest's increasing layers with a running max and
a binary search, and merges only what :data:`LAYERS` layers leave,
which on the applications' streams is little or nothing.

The stream may come in narrow integer dtypes (the trace stores int32
addresses and int8 processor ids).  Addresses are only divided and
reduced modulo here, which stays in range; a value that is multiplied
is widened to int64 first, unless the product is known to fit int32
(the merge keys of :func:`stack_distances`).
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tag match of a direct-mapped cache along its (set, processor)
    group order.

    Returns ``(hit, order, hit_in_order, start)``: the
    :func:`direct_mapped_hits` flags of ``line`` (in stream order,
    ``rounds`` as there), the group order, the first round's flags along
    it, and where along it each group starts.  Along the order a hit's
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
    return hit, order, in_order, start


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


def _earlier_larger(v: np.ndarray) -> np.ndarray:
    """For each element of ``v``, whose values are distinct, how many
    elements before it are larger.

    A bottom-up merge sort counts them: when two sorted blocks merge, an
    element of the right block moves back past the left-block elements
    larger than it.  Each sort key is the block start times the span of
    ``v`` plus the value less ``v``'s minimum: int32 where that stays
    below 2^31, int64 otherwise.  The counts come back in the key dtype.
    """
    m = len(v)
    lo = int(v.min())
    span = int(v.max()) - lo + 1
    keys = np.int32 if m * span < 2**31 else np.int64
    v0 = v = (v - lo).astype(keys, copy=False)
    larger = np.zeros(m, dtype=keys)
    k = np.arange(m, dtype=keys)
    for level in range(max(m - 1, 0).bit_length()):
        # Sorted blocks of b merge into blocks of 2b (sorting by block
        # start k & -2b, then v; the keys are distinct, so any sort
        # orders them alike, and the stable one merges the presorted
        # runs).  perm[k] is where the element now at k was.  A
        # left-block element only moves forward, and a right-block one
        # moves back past the perm[k] - k left-block elements larger
        # than it.
        b = 1 << level
        perm = np.argsort((k & -2 * b) * span + v, kind="stable")
        v = v[perm]
        larger = larger[perm]
        perm -= k
        np.maximum(perm, 0, out=perm)
        larger += perm
    by_value = np.empty(span, dtype=keys)
    by_value[v] = larger
    return by_value[v0]


LAYERS = 8
"""Increasing layers that :func:`stack_distances` peels off its merged
accesses before it merges the rest (:func:`_earlier_larger`)."""


def stack_distances(line: np.ndarray, *group: np.ndarray) -> np.ndarray:
    """LRU stack distance of every access (in stream order) within its
    ``group``: how many distinct other lines the group touched since its
    previous access to ``line``, or -1 on its first touch of the line.

    In group order (the stream sorted by ``group``, positions ascending),
    let p_s be the index of access s's previous same-line access, or -1.
    Each line touched in the window (p_s, s) is counted once, at its
    first access t in it, which is the one with p_t < p_s.  Two kinds
    of access need no merge to tell: a cold access (p_t = -1) is counted
    in every window it lies in, and an immediate repeat (p_t = t - 1) in
    none, with distance 0 itself.  The rest, the merged accesses, have
    distinct p_t; one in the window is not counted exactly when
    p_t > p_s, and every merged t < s with p_t > p_s lies in the window
    (p_s < p_t < t).  So the distance is the count of the window's
    accesses that are not immediate repeats, a prefix sum, less that of
    the merged accesses before s with a larger p.  A window never leaves
    its group, and p rises from one group to the next, so that count
    can be taken over all the merged accesses at once.

    Most of it needs no merge.  The merged accesses whose p is a running
    max have no earlier larger p; they form an increasing layer, and a
    later access's count over the layer is the layer's accesses before
    it less those with a smaller p, found by a binary search.  Peeling
    layer after layer leaves only the accesses in long runs of falling
    p.  After :data:`LAYERS` layers :func:`_earlier_larger` merges what
    is left, with int32 keys unless its count times its span of p
    reaches 2^31.
    """
    n = len(line)
    order, start = (group_index(*group) if group
                    else (np.arange(n), np.arange(n) == 0))
    pos = _positions(n)
    # p[s]: the group-order index of s's previous access to its line, or
    # -1 (the group order sorted again by group number, then line).
    p = prev_in_group(*group_index(np.cumsum(start, dtype=pos), line[order]))
    repeat = np.zeros(n, dtype=bool)
    repeat[1:] = p[1:] == np.arange(n - 1, dtype=pos)
    counted = np.zeros(n + 1, dtype=pos)  # non-repeats before each index
    np.cumsum(~repeat, dtype=pos, out=counted[1:])
    merged = p >= 0
    merged &= ~repeat
    del repeat
    q = p[merged]
    dist = counted[:-1][merged]
    dist -= counted[1:][q]
    del counted
    # Peel increasing layers: q rises from group to group, so one running
    # max over every group marks the accesses with no earlier larger q.
    at = np.arange(len(q), dtype=pos)  # where the accesses left are in dist
    for _ in range(LAYERS):
        if not len(q):
            break
        rest = q != np.maximum.accumulate(q)
        top = q[~rest]
        rest = np.flatnonzero(rest).astype(pos)
        q = q[rest]
        # The layer's accesses before each one left, less those with a
        # smaller q: a prefix of the layer.
        before = rest - np.arange(len(rest), dtype=pos)
        before -= np.searchsorted(top, q)
        del top
        at = at[rest]
        del rest
        dist[at] -= before
        del before
    if len(q):
        dist[at] -= _earlier_larger(q)
    np.minimum(p, 0, out=p)  # -1 on cold accesses, 0 on the rest
    p[merged] = dist
    del q, at, dist, merged
    out = np.empty(n, dtype=np.int64)
    out[order] = p
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
