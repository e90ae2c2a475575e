"""Invalidation-based cache coherence.

Two implementations of the same protocol (write-invalidate MSI over
private direct-mapped caches, lockstep global interleaving):

* :func:`classify_accesses` — fully vectorized over the merged global
  stream; used by every benchmark sweep;
* :class:`ExactCoherentSim` — a straightforward event-at-a-time Python
  simulator kept as an executable specification; the test suite checks
  the two agree access-for-access on random traces and on the merged
  streams of every application in :mod:`repro.apps`.

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

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro import obs
from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    direct_mapped_hits,
    group_index,
    last_flagged_before,
    prev_in_group,
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
) -> AccessClassification:
    """Classify every access of a merged, globally-ordered stream.

    When ``l2`` is given, a private second-level cache (inclusive,
    updated on every reference) filters first-level misses: an L1 miss
    whose line survives in L2 — and was not invalidated by another
    processor's write — is an ``l2_hit``.

    Every word must lie inside one cache line (``cfg.line_bytes`` a
    multiple of ``word_bytes``); other geometries raise ``ValueError``.
    """
    if cfg.line_bytes % word_bytes:
        raise ValueError(f"word_bytes={word_bytes} does not divide the "
                         f"{cfg.line_bytes}-byte cache line")
    n = len(addr)
    line = cfg.line_of(addr)

    # Direct-mapped is the DASH default; the LRU set-associative variant
    # (model-sensitivity studies) thresholds the same stack distances as
    # the locality report.  Both are exact and vectorized.
    if cfg.assoc == 1:
        tag_hit = direct_mapped_hits(proc, addr, cfg)
    else:
        tag_hit = assoc_lru_hits(proc, addr, cfg)
    prev_line_pos = prev_in_group(*group_index(line, proc))
    # An own access to the line (or to one of its words, since no word
    # straddles two lines) is at or before prev_line_pos, so anything
    # later is another processor's: a write to the line invalidated our
    # copy, a write to the word makes that sharing true, and any touch
    # of the line makes our next write an ownership upgrade.
    by_line = group_index(line)
    line_written = last_flagged_before(*by_line, write) > prev_line_pos
    line_touched = prev_in_group(*by_line) > prev_line_pos
    del by_line
    word_written = last_flagged_before(
        *group_index(addr // word_bytes), write) > prev_line_pos

    # Invalidated: the line would have survived in the cache (tag match),
    # but another processor wrote it after this processor's last touch.
    invalidated = tag_hit & line_written
    cold = prev_line_pos < 0
    hit = tag_hit & ~invalidated
    miss = ~hit
    true_sharing = invalidated & word_written
    false_sharing = invalidated & ~true_sharing
    replacement = miss & ~cold & ~invalidated
    # Writer-side ownership acquisition: a write hit on a line someone
    # else has touched since our previous access must invalidate their
    # copy before proceeding.
    upgrade = write & hit & line_touched

    l2_hit = np.zeros(n, dtype=bool)
    if l2 is not None:
        if l2.assoc == 1:
            l2_tag = direct_mapped_hits(proc, addr, l2)
        else:
            l2_tag = assoc_lru_hits(proc, addr, l2)
        # Same invalidation predicate, at the L2 tag state: a remote
        # write invalidates both levels.
        l2_hit = miss & l2_tag & ~line_written
    out = AccessClassification(
        hit=hit,
        cold=cold & miss,
        replacement=replacement,
        true_sharing=true_sharing,
        false_sharing=false_sharing,
        upgrade=upgrade,
        l2_hit=l2_hit,
    )
    if obs.enabled():
        obs.event(
            "sim.classify", cat="machine", accesses=int(n),
            hits=int(out.hit.sum()), cold=int(out.cold.sum()),
            replacement=int(out.replacement.sum()),
            true_sharing=int(out.true_sharing.sum()),
            false_sharing=int(out.false_sharing.sum()),
            upgrade=int(out.upgrade.sum()), l2_hits=int(out.l2_hit.sum()),
        )
    return out


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
