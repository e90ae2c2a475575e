"""Invalidation-based cache coherence.

Two implementations of the same protocol (write-invalidate MSI over
private direct-mapped caches, lockstep global interleaving):

* :func:`classify_accesses` — fully vectorized over the merged global
  stream; used by every benchmark sweep;
* :class:`ExactCoherentSim` — a straightforward event-at-a-time Python
  simulator kept as an executable specification; the test suite checks
  the two agree access-for-access on random traces and on the merged
  streams of every application in :mod:`repro.apps`.

A time-stepped program replays the same round of accesses again and
again.  :func:`classify_accesses` takes one round and ``rounds``, and
derives every later round from the first round's group orders instead
of sorting the repeated stream.  A later round differs from the first
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
    direct_mapped_hits,
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
    line = cfg.line_of(addr)
    # Round 1 stands for every later round.
    tag_rounds = min(rounds, 2)
    tag_hit = _tag_hits(proc, addr, cfg, tag_rounds)
    l2_tag = None if l2 is None else _tag_hits(proc, addr, l2, tag_rounds)
    by_line_proc = group_index(line, proc)
    prev_line_pos = prev_in_group(*by_line_proc)
    if rounds > 1:
        # Each processor's first and last touch of each line.
        first = by_line_proc[0][by_line_proc[1]]
        last = last_in_group(*by_line_proc)
    del by_line_proc
    # An own access to the line (or to one of its words, since no word
    # straddles two lines) is at or before prev_line_pos, so anything
    # later is another processor's: a write to the line invalidated our
    # copy, a write to the word makes that sharing true, and any touch
    # of the line makes our next write an ownership upgrade.
    by_line = group_index(line)
    line_written = last_flagged_before(*by_line, write) > prev_line_pos
    line_touched = prev_in_group(*by_line) > prev_line_pos
    if rounds > 1:
        line_written_wrap = line_written[first] | _after(
            by_line, addr, cfg.line_bytes, first, last, write)
        line_touched_wrap = line_touched[first] | _after(
            by_line, addr, cfg.line_bytes, first, last)
    del by_line
    by_word = group_index(addr // word_bytes)
    word_written = last_flagged_before(*by_word, write) > prev_line_pos
    if rounds > 1:
        word_written_wrap = word_written[first] | _after(
            by_word, addr, word_bytes, first, last, write)
    del by_word

    out = _outcome(tag_hit[:n], line_written, line_touched, word_written,
                   prev_line_pos < 0, write,
                   None if l2_tag is None else l2_tag[:n])
    if rounds > 1:
        wrapped = _outcome(
            tag_hit[n:][first], line_written_wrap, line_touched_wrap,
            word_written_wrap, np.zeros(len(first), dtype=bool),
            write[first], None if l2_tag is None else l2_tag[n:][first])
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
    """Tag-match flags of one cache level.  Direct-mapped is the DASH
    default; the LRU set-associative variant (model-sensitivity studies)
    thresholds the same stack distances as the locality report.  Both
    are exact and vectorized."""
    if cfg.assoc == 1:
        return direct_mapped_hits(proc, addr, cfg, rounds)
    return assoc_lru_hits(proc, addr, cfg, rounds)


def _after(by, addr, unit, first, last, flag=None):
    """Whether the group under ``by`` (the :func:`group_index` of
    ``addr // unit``) of each position in ``first`` has a position (with
    ``flag``, a flagged one) after the matching one in ``last``."""
    order, start = by
    group = np.searchsorted(addr[order[start]] // unit, addr[first] // unit)
    return last_in_group(order, start, flag)[group] > last


def _outcome(tag, line_written, line_touched, word_written, cold, write,
             l2_tag) -> AccessClassification:
    """The miss classes from the tag match and the coherence terms."""
    # Invalidated: the line would have survived in the cache (tag match),
    # but another processor wrote it after this processor's last touch.
    invalidated = tag & line_written
    hit = tag & ~invalidated
    miss = ~hit
    true_sharing = invalidated & word_written
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
