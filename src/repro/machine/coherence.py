"""Invalidation-based cache coherence.

Two implementations of the same protocol (write-invalidate MSI over
private direct-mapped caches, lockstep global interleaving):

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

Miss taxonomy (Section 1.1):

* **cold** — processor touches a line for the first time;
* **replacement** — conflict/capacity: the line was displaced from the
  direct-mapped set by another line;
* **true sharing** — the line was invalidated by another processor's
  write *to a word this processor uses*;
* **false sharing** — the line was invalidated by another processor's
  write to a *different* word of the same line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

import numpy as np

from repro import obs
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


@dataclass
class AccessClassification:
    """Per-access outcome flags (all in stream order).

    ``upgrade`` marks write hits that must still acquire exclusive
    ownership because another processor touched the line since this
    processor's previous access — the writer-side cost of sharing
    ping-pong (the reader side shows up as sharing misses).
    """

    hit: np.ndarray
    cold: np.ndarray
    replacement: np.ndarray
    true_sharing: np.ndarray
    false_sharing: np.ndarray
    upgrade: np.ndarray = None
    l2_hit: np.ndarray = None
    """True where a first-level miss is satisfied by the (optional)
    private second-level cache; always False when no L2 is modelled."""

    def __post_init__(self):
        if self.upgrade is None:
            self.upgrade = np.zeros(len(self.hit), dtype=bool)
        if self.l2_hit is None:
            self.l2_hit = np.zeros(len(self.hit), dtype=bool)

    @property
    def miss(self) -> np.ndarray:
        return ~self.hit


def classify_accesses(
    proc: np.ndarray,
    addr: np.ndarray,
    write: np.ndarray,
    cfg: CacheConfig,
    word_bytes: int = 8,
    l2: "CacheConfig | None" = None,
    rounds: int = 1,
) -> AccessClassification:
    """Classify every access of a merged, globally-ordered stream.

    When ``l2`` is given, a private second-level cache (inclusive,
    updated on every reference) filters first-level misses: an L1 miss
    whose line survives in L2 — and was not invalidated by another
    processor's write — is an ``l2_hit``.

    ``rounds`` > 1 classifies the stream repeated ``rounds`` times
    back-to-back, so every flag is ``rounds * len(addr)`` long, but only
    the one round given is sorted and scanned.  A later round differs
    from the first only at each processor's first touch of each line in
    the round.  There its previous own touch wraps round to its last
    touch of the line, L, in the previous round: the tag comes from the
    same wrap, the access is not cold, and the line (or word) counts as
    written or touched since L when it was so earlier in this round or
    after L in the previous one.  Every later round sees exactly that
    wrapped history, so rounds 2, 3, ... equal round 1 flag for flag.

    Every word must lie inside one cache line (``cfg.line_bytes`` a
    multiple of ``word_bytes``); other geometries raise ``ValueError``.
    """
    if cfg.line_bytes % word_bytes:
        raise ValueError(f"word_bytes={word_bytes} does not divide the "
                         f"{cfg.line_bytes}-byte cache line")
    n = len(addr)
    # Round 1 stands for every later round.
    tag_rounds = min(rounds, 2)
    tag_hit, by_tag, tag_in_order = _tag_hits(proc, addr, cfg, tag_rounds)
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
        l2_tag, by_l2, l2_in_order = _tag_hits(proc, addr, l2, tag_rounds)
        own = np.where(own >= 0, own, prev_in_group(by_l2, ~l2_in_order))
        del by_l2, l2_in_order

    # A processor's first touch of a line is always a tag miss, so the
    # tag misses alone, grouped by (line, processor), give every first
    # touch (the cold accesses) and, for the wrap, every last one.
    line = cfg.line_of(addr)
    missed = np.flatnonzero(~tag_hit[:n])
    by_miss = group_index(line[missed], proc[missed])
    first = missed[by_miss[0][by_miss[1]]]
    if rounds > 1:
        last = run_end[missed[last_in_group(*by_miss)]]
        del run_end
    del missed, by_miss
    cold = np.zeros(n, dtype=bool)
    cold[first] = True

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
    del by_line, line_start

    words = _WordWrites(addr, write, word_bytes)
    out = _outcome(tag_hit[:n], line_written, line_touched,
                   lambda at: words.between(at, own[at], at), cold, write,
                   None if l2_tag is None else l2_tag[:n])
    if rounds > 1:
        wrapped = _outcome(
            tag_hit[n:][first], line_written_wrap, line_touched_wrap,
            lambda at: (words.between(first[at], -1, first[at])
                        | words.between(first[at], last[at], n)),
            np.zeros(len(first), dtype=bool), write[first],
            None if l2_tag is None else l2_tag[n:][first])
        flags = {}
        for f in fields(AccessClassification):
            once = getattr(out, f.name)
            later = once.copy()
            later[first] = getattr(wrapped, f.name)
            flags[f.name] = repeat_rounds(once, later, rounds)
        out = AccessClassification(**flags)
    if obs.enabled():
        obs.event(
            "sim.classify", cat="machine", accesses=len(out.hit),
            hits=int(out.hit.sum()), cold=int(out.cold.sum()),
            replacement=int(out.replacement.sum()),
            true_sharing=int(out.true_sharing.sum()),
            false_sharing=int(out.false_sharing.sum()),
            upgrade=int(out.upgrade.sum()), l2_hits=int(out.l2_hit.sum()),
        )
    return out


def _tag_hits(proc, addr, cfg, rounds):
    """Tag match of one cache level: ``(hit, order, hit_in_order)``,
    the flags of ``rounds`` rounds in stream order, and an order of the
    stream along which each hit's previous entry is the processor's
    previous touch of the line (every group opening with a miss), with
    the first round's flags along it.  Direct-mapped is the DASH
    default, matched along the (set, processor) order; the LRU
    set-associative variant (model-sensitivity studies) thresholds the
    same stack distances as the locality report, and is followed along
    the (line, processor) order.  Both are exact and vectorized."""
    line = cfg.line_of(addr)
    if cfg.assoc == 1:
        return direct_mapped_order(proc, line, cfg, rounds)
    hit = assoc_lru_hits(proc, addr, cfg, rounds)
    order = group_index(line, proc)[0]
    return hit, order, hit[:len(addr)][order]


class _WordWrites:
    """The writes of a stream sorted by (word, position), searched for
    writes to one word between two positions.  Sorted on first use: only
    invalidated accesses ask."""

    def __init__(self, addr, write, word_bytes):
        self.addr, self.write, self.word_bytes = addr, write, word_bytes
        self.n = len(addr)
        self.keys = None

    def between(self, at, after, before):
        """Whether the word of each access ``at`` was written at a
        position strictly between ``after`` and ``before``."""
        if not len(at):
            return np.zeros(0, dtype=bool)
        if self.keys is None:
            pos = np.flatnonzero(self.write)
            word = self.addr[pos] // self.word_bytes
            order = group_index(word)[0]
            self.keys = word[order].astype(np.int64) * self.n + pos[order]
            del pos, word, order
        base = (self.addr[at] // self.word_bytes).astype(np.int64) * self.n
        # The last write to the word before ``before``, if any.
        k = np.searchsorted(self.keys, base + before) - 1
        return (k >= 0) & (self.keys[k] > base + after)


def _outcome(tag, line_written, line_touched, word_written, cold, write,
             l2_tag) -> AccessClassification:
    """The miss classes from the tag match and the coherence terms.
    ``word_written(at)`` says whether the word of each invalidated
    access ``at`` was written since the processor's previous touch."""
    # Invalidated: the line would have survived in the cache (tag match),
    # but another processor wrote it after this processor's last touch.
    invalidated = tag & line_written
    hit = tag & ~invalidated
    miss = ~hit
    true_sharing = np.zeros(len(tag), dtype=bool)
    at = np.flatnonzero(invalidated)
    true_sharing[at] = word_written(at)
    # Same invalidation predicate at the L2 tag state: a remote write
    # invalidates both levels.
    l2_hit = None if l2_tag is None else miss & l2_tag & ~line_written
    return AccessClassification(
        hit=hit,
        cold=cold & miss,
        replacement=miss & ~cold & ~invalidated,
        true_sharing=true_sharing,
        false_sharing=invalidated & ~true_sharing,
        # Writer-side ownership acquisition: a write hit on a line
        # someone else has touched since our previous access must
        # invalidate their copy before proceeding.
        upgrade=write & hit & line_touched,
        l2_hit=l2_hit,
    )


class ExactCoherentSim:
    """Event-at-a-time MSI reference simulator (executable spec).

    Caches are direct-mapped; a write invalidates every other
    processor's copy of the line.  Sharing misses are split true/false
    by whether any invalidating write since this processor's last touch
    hit the word now being accessed.

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
        # cache[p][set] = line currently cached (or None); valid flag.
        cache: Dict[Tuple[int, int], int] = {}
        valid: Dict[Tuple[int, int], bool] = {}
        touched: set = set()  # (proc, line) ever cached
        # last write position per word / per line by each proc.
        word_writes: Dict[int, list] = {}  # word -> list of (pos, proc)
        line_writes: Dict[int, list] = {}
        last_touch: Dict[Tuple[int, int], int] = {}

        hit = np.zeros(n, dtype=bool)
        cold = np.zeros(n, dtype=bool)
        repl = np.zeros(n, dtype=bool)
        tshare = np.zeros(n, dtype=bool)
        fshare = np.zeros(n, dtype=bool)
        upgrade = np.zeros(n, dtype=bool)
        l2_hit = np.zeros(n, dtype=bool)
        last_touch_any: Dict[int, int] = {}
        # Second-level tag state, mirroring the L1 structures.
        l2cache: Dict[Tuple[int, int], int] = {}
        l2valid: Dict[Tuple[int, int], bool] = {}

        for i in range(n):
            p = int(proc[i])
            a = int(addr[i])
            ln = a // cfg.line_bytes
            st = ln % cfg.nsets
            wd = a // self.word_bytes
            key = (p, st)
            cached = cache.get(key)
            is_valid = valid.get(key, False)
            if cached == ln and is_valid:
                hit[i] = True
                if write[i] and last_touch_any.get(ln, -1) > last_touch.get(
                    (p, ln), -1
                ):
                    upgrade[i] = True
            else:
                if (p, ln) not in touched:
                    cold[i] = True
                elif cached == ln and not is_valid:
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
                    k2 = (p, ln % self.l2.nsets)
                    if l2cache.get(k2) == ln and l2valid.get(k2, False):
                        l2_hit[i] = True
                cache[key] = ln
                valid[key] = True
            if self.l2 is not None:
                k2 = (p, ln % self.l2.nsets)
                l2cache[k2] = ln
                l2valid[k2] = True
            touched.add((p, ln))
            last_touch[(p, ln)] = i
            last_touch_any[ln] = i
            if write[i]:
                word_writes.setdefault(wd, []).append((i, p))
                line_writes.setdefault(ln, []).append((i, p))
                # Invalidate every other processor's copy.
                for q in range(self.nprocs):
                    if q == p:
                        continue
                    kq = (q, st)
                    if cache.get(kq) == ln and valid.get(kq, False):
                        valid[kq] = False
                    if self.l2 is not None:
                        kq2 = (q, ln % self.l2.nsets)
                        if (l2cache.get(kq2) == ln
                                and l2valid.get(kq2, False)):
                            l2valid[kq2] = False
        return AccessClassification(
            hit=hit,
            cold=cold,
            replacement=repl,
            true_sharing=tshare,
            false_sharing=fshare,
            upgrade=upgrade,
            l2_hit=l2_hit,
        )
