"""Invalidation-based cache coherence.

Two implementations of the same protocol (write-invalidate MSI over
private direct-mapped or LRU set-associative caches, lockstep global
interleaving):

* :func:`classify_accesses` — fully vectorized over the merged global
  stream; used by every benchmark sweep;
* :class:`ExactCoherentSim` — a straightforward event-at-a-time Python
  simulator kept as an executable specification; the test suite checks
  the two agree access-for-access on random traces and on the merged
  streams of every application in :mod:`repro.apps`.

:func:`classify_accesses` sorts the stream in two group orders.  The
tag match is read along the (set, processor) order, where a hit's
previous entry is also the processor's previous touch of the line; the
coherence terms are read along the line order, where an access is
compared with that previous own touch.  Everything else is asked of a
subset: a processor's first touch of a line is always a tag miss, so
the cold accesses come from the tag misses alone, grouped by (line,
processor); and true versus false sharing is decided only at the
invalidated accesses, by searching the writes sorted by (word,
position).

A time-stepped program replays the same round of accesses again and
again.  :func:`classify_accesses` takes one round and ``rounds``, and
derives every later round from the first round's orders instead of
sorting the repeated stream.  A later round differs from the first
only at each processor's first touch of each line in the round, whose
previous own touch wraps round to its last touch of the line in the
previous round.  That wrapped history is the same in every later
round, so in the spec rounds 2, 3, ... equal round 1 flag for flag.

A stream too long to hold at once is classified in chunks, each with
the :class:`CoherenceHistory` that the chunks before it leave behind.
Every term read at an access is the last event of some key before it:
the tag (the last access of its set and processor), the own touch, the
last write and the last touch of its line and the last write of its
word; an LRU set also reads the distinct lines since the own touch.
So a short prefix of real past events that keeps the last event of
every key, in stream order, gives each access of the chunk after it
the terms the whole stream would.  Only coldness reaches further back,
and the history carries it as the set of (line, processor) pairs ever
touched.

Miss taxonomy (Section 1.1):

* **cold** — processor touches a line for the first time;
* **replacement** — conflict/capacity: the line was displaced from the
  direct-mapped set by another line;
* **true sharing** — the line was invalidated by another processor's
  write *to a word this processor uses*;
* **false sharing** — the line was invalidated by another processor's
  write to a *different* word of the same line.

Each access's outcome is one byte, its :class:`AccessClassification`
code: a hit, a hit that must acquire ownership (an upgrade), or one of
the four miss classes, with or without the second-level cache serving
it.  The classes are mutually exclusive, so the code is both the
classifier's output and all that ``simulate`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    direct_mapped_order,
    group_index,
    last_flagged_before,
    last_in_group,
    prev_in_group,
    repeat_rounds,
)

# The outcome codes (see AccessClassification).
HIT, UPGRADE = 0, 1
COLD, REPLACEMENT, TRUE_SHARING, FALSE_SHARING = 2, 4, 6, 8
L2_SERVED = 1
OUTCOMES = 10
REMOTE = OUTCOMES
"""Added by ``simulate``'s tally to a miss served by memory whose page
is homed in another cluster, which gives ``2 * OUTCOMES`` bins."""


@dataclass(frozen=True, eq=False)
class AccessClassification:
    """The outcome code of every access, in stream order, one ``uint8``
    each; the flags (``hit``, ``cold``, ..., ``l2_hit``) are read from
    it.

    A hit is ``HIT``, or ``UPGRADE`` for a write hit that must still
    acquire exclusive ownership because another processor touched the
    line since this processor's previous access — the writer-side cost
    of sharing ping-pong (the reader side shows up as sharing misses).
    A miss is ``2 + 2 * class``, the class being cold, replacement, true
    or false sharing (``COLD``, ``REPLACEMENT``, ``TRUE_SHARING``,
    ``FALSE_SHARING``), plus ``L2_SERVED`` when the (optional) private
    second-level cache serves it: ``OUTCOMES`` codes in all.
    :meth:`pack` builds the codes from flags.
    """

    code: np.ndarray

    @classmethod
    def pack(cls, write, hit, cold, replacement, true_sharing,
             false_sharing, upgrade, l2_hit) -> "AccessClassification":
        """The codes of per-access flags.  Raises ``ValueError`` unless
        hit, cold, replacement, true and false sharing partition the
        accesses, every upgrade is a write hit and every L2 hit a
        miss."""
        classes = (hit, cold, replacement, true_sharing, false_sharing)
        if not (np.sum(classes, axis=0) == 1).all():
            raise ValueError("hit, cold, replacement, true and false "
                             "sharing must partition the accesses")
        if (upgrade & ~(write & hit)).any():
            raise ValueError("an upgrade must be a write hit")
        if (l2_hit & hit).any():
            raise ValueError("an L2 hit must be a miss")
        code = np.where(upgrade, UPGRADE, HIT).astype(np.uint8)
        for c, flag in zip((COLD, REPLACEMENT, TRUE_SHARING, FALSE_SHARING),
                           classes[1:]):
            code[flag] = c
        code[l2_hit] += L2_SERVED
        return cls(code)

    def _is(self, c) -> np.ndarray:
        # A miss class with or without the L2.
        return (self.code | L2_SERVED) == (c | L2_SERVED)

    @property
    def hit(self) -> np.ndarray:
        return self.code <= UPGRADE

    @property
    def miss(self) -> np.ndarray:
        return self.code > UPGRADE

    @property
    def cold(self) -> np.ndarray:
        return self._is(COLD)

    @property
    def replacement(self) -> np.ndarray:
        return self._is(REPLACEMENT)

    @property
    def true_sharing(self) -> np.ndarray:
        return self._is(TRUE_SHARING)

    @property
    def false_sharing(self) -> np.ndarray:
        return self._is(FALSE_SHARING)

    @property
    def upgrade(self) -> np.ndarray:
        return self.code == UPGRADE

    @property
    def l2_hit(self) -> np.ndarray:
        return self.miss & ((self.code & L2_SERVED) > 0)


def classify_accesses(
    proc: np.ndarray,
    addr: np.ndarray,
    write: np.ndarray,
    cfg: CacheConfig,
    word_bytes: int = 8,
    l2: "CacheConfig | None" = None,
    rounds: int = 1,
    history: "CoherenceHistory | None" = None,
) -> AccessClassification:
    """Classify every access of a merged, globally-ordered stream: the
    :class:`AccessClassification` code of each, written where the
    classes are decided, so no per-class flag array is built.

    When ``l2`` is given, a private second-level cache (inclusive,
    updated on every reference) filters first-level misses: an L1 miss
    whose line survives in L2 — and was not invalidated by another
    processor's write — is an ``l2_hit``.

    ``rounds`` > 1 classifies the stream repeated ``rounds`` times
    back-to-back, so the code is ``rounds * len(addr)`` long, but only
    the one round given is sorted and scanned.  A later round differs
    from the first only at each processor's first touch of each line in
    the round.  There its previous own touch wraps round to its last
    touch of the line, L, in the previous round: the tag comes from the
    same wrap, the access is not cold, and the line (or word) counts as
    written or touched since L when it was so earlier in this round or
    after L in the previous one.  Every later round sees exactly that
    wrapped history, so rounds 2, 3, ... equal round 1 code for code.

    ``history`` makes the accesses given one chunk of a longer stream
    (one round only): they are classified after the history's prefix of
    past events, a first touch is cold only if no earlier chunk touched
    the pair, and the history is updated in place to what this chunk
    leaves behind.  The code still covers exactly the accesses given.
    Without it the stream is classified whole, with no history work.

    Every word must lie inside one cache line (``cfg.line_bytes`` a
    multiple of ``word_bytes``); other geometries raise ``ValueError``.
    """
    if cfg.line_bytes % word_bytes:
        raise ValueError(f"word_bytes={word_bytes} does not divide the "
                         f"{cfg.line_bytes}-byte cache line")
    keep, m = None, 0
    if history is not None:
        if rounds != 1:
            raise ValueError("a carried history classifies one round")
        # Positions of the events the next chunk's history keeps.
        keep = []
        m = len(history)
        if m:
            proc, addr, write = (np.concatenate([history.proc, proc]),
                                 np.concatenate([history.addr, addr]),
                                 np.concatenate([history.write, write]))
    n = len(addr)
    # Round 1 stands for every later round.
    tag_rounds = min(rounds, 2)
    tag_hit, by_tag, tag_in_order = _tag_hits(proc, addr, cfg, tag_rounds,
                                              keep)
    # Along the tag order a hit's previous entry is the processor's
    # previous touch of the line, its "own" touch; -1 at tag misses.
    own = prev_in_group(by_tag, ~tag_in_order)
    if rounds > 1:
        # Each run of hits after a tag miss ends at the line's last own
        # touch before the next miss; keyed by the miss's position.
        run_end = np.empty(n, dtype=by_tag.dtype)
        run_end[by_tag[~tag_in_order]] = last_in_group(by_tag,
                                                       ~tag_in_order)
    del by_tag, tag_in_order
    l2_tag = None
    if l2 is not None:
        l2_tag, by_l2, l2_in_order = _tag_hits(proc, addr, l2, tag_rounds,
                                               keep)
        own = np.where(own >= 0, own, prev_in_group(by_l2, ~l2_in_order))
        del by_l2, l2_in_order

    # A processor's first touch of a line is always a tag miss, so the
    # tag misses alone, grouped by (line, processor), give every first
    # touch (the cold accesses) and, for the wrap, every last one.
    # A pair the prefix touches was touched by an earlier chunk, so only
    # the chunk's own accesses are asked.
    line = cfg.line_of(addr)
    missed = np.flatnonzero(~tag_hit[m:n]) + m
    by_miss = group_index(line[missed], proc[missed])
    first = missed[by_miss[0][by_miss[1]]]
    if rounds > 1:
        last = run_end[missed[last_in_group(*by_miss)]]
        del run_end
    del missed, by_miss
    if history is not None:
        first = history.first_touches(line, proc, first)

    # An own access to the line (or to one of its words, since no word
    # straddles two lines) is at or before ``own``, so anything later is
    # another processor's: a write to the line invalidated our copy, a
    # write to the word makes that sharing true, and any touch of the
    # line makes our next write an ownership upgrade.
    by_line, line_start = group_index(line)
    if rounds > 1:
        # The line group of each first touch, for the wrap below.
        group = np.searchsorted(line[by_line[line_start]], line[first])
    del line
    line_written = last_flagged_before(by_line, line_start, write) > own
    line_touched = np.zeros(n, dtype=bool)
    ps = proc[by_line]
    line_touched[by_line[1:]] = (ps[1:] != ps[:-1]) & ~line_start[1:]
    del ps
    if rounds > 1:
        # At a first touch ``own`` is -1, so the terms above say whether
        # the line was written or touched earlier in the round; the wrap
        # adds whether it was after L in the previous one.
        line_written_wrap = line_written[first] | (
            last_in_group(by_line, line_start, write)[group] > last)
        line_touched_wrap = line_touched[first] | (
            last_in_group(by_line, line_start)[group] > last)
        del group
    if keep is not None:
        # A line's last write is the last write of one of its words,
        # which the history keeps below.
        keep.append(last_in_group(by_line, line_start))
    del by_line, line_start

    words = _WordWrites(addr, write, word_bytes)
    code = _outcome(tag_hit[:n], line_written, line_touched,
                    lambda at: words.between(at, own[at], at), write,
                    None if l2_tag is None else l2_tag[:n], cold=first)
    if rounds > 1:
        later = code.copy()
        later[first] = _outcome(
            tag_hit[n:][first], line_written_wrap, line_touched_wrap,
            lambda at: (words.between(first[at], -1, first[at])
                        | words.between(first[at], last[at], n)),
            write[first], None if l2_tag is None else l2_tag[n:][first])
        code = repeat_rounds(code, later, rounds)
    if keep is not None:
        keep.append(words.last_writes())
        history.keep(proc, addr, write, keep)
        # The prefix's codes were the earlier chunks' to report.
        code = code[m:]
    return AccessClassification(code)


class CoherenceHistory:
    """What the chunks of a stream classified so far leave behind for
    the next one (:func:`classify_accesses`'s ``history``).

    ``proc``, ``addr`` and ``write`` are a prefix of real past events in
    stream order.  It keeps, for each cache level, the last access of
    each of the ``assoc`` most recent lines of every (set, processor);
    the last access of every line; and the last write of every word,
    which also holds every line's last write.  Any other event in it is
    older than its key's last, so no term reads it.  ``seen[line,
    proc]`` marks every pair ever touched, which is all that decides a
    cold miss.
    """

    def __init__(self):
        empty = np.zeros(0, dtype=np.int64)
        self.proc, self.addr = empty, empty
        self.write = np.zeros(0, dtype=bool)
        self.seen = np.zeros((0, 0), dtype=bool)

    def __len__(self) -> int:
        return len(self.addr)

    def first_touches(self, line, proc, at):
        """Of the accesses ``at``, each its pair's first touch in the
        chunk, those whose pair no earlier chunk touched; they are
        marked as touched."""
        ln, p = line[at], proc[at].astype(np.intp)
        rows, cols = self.seen.shape
        if len(at) and (ln.max() >= rows or p.max() >= cols):
            # Rows double, so that a stream reaching ever higher lines
            # copies the table a few times only.
            grown = np.zeros((rows if ln.max() < rows
                              else max(int(ln.max()) + 1, 2 * rows),
                              max(int(p.max()) + 1, cols)), dtype=bool)
            grown[:rows, :cols] = self.seen
            self.seen = grown
        new = ~self.seen[ln, p]
        self.seen[ln[new], p[new]] = True
        return at[new]

    def keep(self, proc, addr, write, kept):
        """Make the events at the positions ``kept`` (arrays, -1 for
        none) of the chunk and its prefix the next prefix."""
        at = np.sort(np.concatenate(kept))
        # A sort and a neighbour mask: np.unique may hash instead.
        new = at >= 0
        new[1:] &= at[1:] != at[:-1]
        at = at[new]
        self.proc, self.addr, self.write = proc[at], addr[at], write[at]


def _tag_hits(proc, addr, cfg, rounds, keep=None):
    """Tag match of one cache level: ``(hit, order, hit_in_order)``,
    the flags of ``rounds`` rounds in stream order, and an order of the
    stream along which each hit's previous entry is the processor's
    previous touch of the line (every group opening with a miss), with
    the first round's flags along it.  Direct-mapped is the DASH
    default, matched along the (set, processor) order; the LRU
    set-associative variant (model-sensitivity studies) thresholds the
    same stack distances as the locality report, and is followed along
    the (line, processor) order.  Both are exact and vectorized.  A
    ``keep`` list gets the positions this level's tags depend on: the
    last access of each of the ``assoc`` most recent lines of every
    (set, processor)."""
    line = cfg.line_of(addr)
    if cfg.assoc == 1:
        hit, order, in_order, start = direct_mapped_order(proc, line, cfg,
                                                          rounds)
        if keep is not None:
            keep.append(last_in_group(order, start))
        return hit, order, in_order
    hit = assoc_lru_hits(proc, addr, cfg, rounds)
    order, start = group_index(line, proc)
    if keep is not None:
        # Each (line, processor)'s last touch; of those, the ``assoc``
        # most recent of each (set, processor).
        last = np.sort(last_in_group(order, start))
        by_set, set_start = group_index(cfg.set_of(line[last]), proc[last])
        rank = np.arange(len(last))
        group_end = np.flatnonzero(np.roll(set_start, -1))
        recent = group_end[np.cumsum(set_start) - 1] - rank < cfg.assoc
        keep.append(last[by_set[recent]])
    return hit, order, hit[:len(addr)][order]


class _WordWrites:
    """The writes of a stream sorted by (word, position), searched for
    writes to one word between two positions.  Sorted on first use: only
    invalidated accesses ask, and a carried history."""

    def __init__(self, addr, write, word_bytes):
        self.addr, self.write, self.word_bytes = addr, write, word_bytes
        self.n = len(addr)
        self._keys = None

    def keys(self):
        """``word * n + position`` of every write, ascending."""
        if self._keys is None:
            pos = np.flatnonzero(self.write)
            word = self.addr[pos] // self.word_bytes
            order = group_index(word)[0]
            self._keys = word[order].astype(np.int64) * self.n + pos[order]
        return self._keys

    def between(self, at, after, before):
        """Whether the word of each access ``at`` was written at a
        position strictly between ``after`` and ``before``."""
        if not len(at):
            return np.zeros(0, dtype=bool)
        keys = self.keys()
        base = (self.addr[at] // self.word_bytes).astype(np.int64) * self.n
        # The last write to the word before ``before``, if any.
        k = np.searchsorted(keys, base + before) - 1
        return (k >= 0) & (keys[k] > base + after)

    def last_writes(self):
        """The position of the last write to every written word."""
        keys = self.keys()
        word = keys // max(self.n, 1)
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = word[1:] != word[:-1]
        return keys[last] % max(self.n, 1)


def _outcome(tag, line_written, line_touched, word_written, write, l2_tag,
             cold=None) -> np.ndarray:
    """The outcome codes from the tag match and the coherence terms.
    ``word_written(at)`` says whether the word of each invalidated
    access ``at`` was written since the processor's previous touch;
    ``cold`` holds the positions of the cold accesses, all tag misses."""
    # A tag miss is a replacement unless it is cold.
    code = (~tag).view(np.uint8) * np.uint8(REPLACEMENT)
    if cold is not None:
        code[cold] = COLD
    # Invalidated: the line would have survived in the cache (tag match),
    # but another processor wrote it after this processor's last touch.
    at = np.flatnonzero(tag & line_written)
    code[at] = np.where(word_written(at), TRUE_SHARING, FALSE_SHARING)
    # Writer-side ownership acquisition: a write hit on a line someone
    # else has touched since our previous access must invalidate their
    # copy before proceeding.
    code += (tag & ~line_written & write & line_touched).view(np.uint8)
    if l2_tag is not None:
        # Same invalidation predicate at the L2 tag state: a remote
        # write invalidates both levels.
        code += (~tag & l2_tag & ~line_written).view(np.uint8)
    return code


class ExactCoherentSim:
    """Event-at-a-time MSI reference simulator (executable spec).

    Each (processor, set) of a cache holds the ``assoc`` lines it touched
    most recently, so a direct-mapped set holds the last one; a write
    invalidates every other processor's copy of the line, which keeps its
    place in the set.  Sharing misses are split true/false by whether
    any invalidating write since this processor's last touch hit the
    word now being accessed.

    ``l2`` optionally models the private second-level cache with the
    same semantics as :func:`classify_accesses`: inclusive, updated on
    every reference, invalidated (both levels) by remote writes; a
    first-level miss whose line survives there is an ``l2_hit``.
    """

    def __init__(self, nprocs: int, cfg: CacheConfig, word_bytes: int = 8,
                 l2: "CacheConfig | None" = None):
        self.nprocs = nprocs
        self.cfg = cfg
        self.word_bytes = word_bytes
        self.l2 = l2

    def run(
        self, proc: np.ndarray, addr: np.ndarray, write: np.ndarray
    ) -> AccessClassification:
        n = len(addr)
        cfg = self.cfg
        levels = [_SpecCache(cfg)]
        if self.l2 is not None:
            levels.append(_SpecCache(self.l2))
        touched: set = set()  # (proc, line) ever cached
        word_writes: Dict[int, list] = {}  # word -> list of (pos, proc)
        last_touch: Dict[Tuple[int, int], int] = {}

        hit = np.zeros(n, dtype=bool)
        cold = np.zeros(n, dtype=bool)
        repl = np.zeros(n, dtype=bool)
        tshare = np.zeros(n, dtype=bool)
        fshare = np.zeros(n, dtype=bool)
        upgrade = np.zeros(n, dtype=bool)
        l2_hit = np.zeros(n, dtype=bool)
        last_touch_any: Dict[int, int] = {}

        for i in range(n):
            p = int(proc[i])
            a = int(addr[i])
            ln = a // cfg.line_bytes
            wd = a // self.word_bytes
            present, is_valid = levels[0].lookup(p, ln)
            if present and is_valid:
                hit[i] = True
                if write[i] and last_touch_any.get(ln, -1) > last_touch.get(
                    (p, ln), -1
                ):
                    upgrade[i] = True
            else:
                if (p, ln) not in touched:
                    cold[i] = True
                elif present:
                    # Present but invalidated: sharing miss.  True iff an
                    # invalidating write since our last touch was to this
                    # word.
                    since = last_touch.get((p, ln), -1)
                    word_hits = any(
                        q != p and pos > since
                        for pos, q in word_writes.get(wd, ())
                    )
                    if word_hits:
                        tshare[i] = True
                    else:
                        fshare[i] = True
                else:
                    repl[i] = True
                if self.l2 is not None:
                    l2_hit[i] = all(levels[1].lookup(p, ln))
            for level in levels:
                level.touch(p, ln)
            touched.add((p, ln))
            last_touch[(p, ln)] = i
            last_touch_any[ln] = i
            if write[i]:
                word_writes.setdefault(wd, []).append((i, p))
                # Invalidate every other processor's copy.
                for q in range(self.nprocs):
                    if q != p:
                        for level in levels:
                            level.valid.discard((q, ln))
        return AccessClassification.pack(
            write, hit=hit, cold=cold, replacement=repl, true_sharing=tshare,
            false_sharing=fshare, upgrade=upgrade, l2_hit=l2_hit,
        )


class _SpecCache:
    """The tag state of one cache level of :class:`ExactCoherentSim`:
    each (processor, set)'s lines, most recently touched first, and the
    (processor, line) pairs not invalidated since they were cached."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.ways: Dict[Tuple[int, int], list] = {}
        self.valid: set = set()

    def lookup(self, p: int, ln: int) -> Tuple[bool, bool]:
        """Whether the line is in the processor's set, and valid."""
        present = ln in self.ways.get((p, ln % self.cfg.nsets), ())
        return present, present and (p, ln) in self.valid

    def touch(self, p: int, ln: int) -> None:
        ways = self.ways.setdefault((p, ln % self.cfg.nsets), [])
        if ln in ways:
            ways.remove(ln)
        elif len(ways) == self.cfg.assoc:
            ways.pop()
        ways.insert(0, ln)
        self.valid.add((p, ln))
