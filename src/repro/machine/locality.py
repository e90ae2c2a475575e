"""Memory-locality analytics over the simulator's address streams.

The paper's argument is entirely about *where* memory time goes: cold
misses are first touches, capacity misses are reuses whose **reuse
distance** (distinct cache lines touched in between) exceeds the cache,
conflict misses are short-distance reuses evicted anyway because too
many lines compete for one direct-mapped set, and remote accesses are
whatever NUMA placement fails to keep local.  This module computes
those signals directly from the vectorized address traces
(:mod:`repro.machine.trace`), independent of the cache model:

* :func:`reuse_distances` — per-processor LRU stack distance over
  cache lines (``-1`` marks a cold first touch): the vectorized merge
  count :func:`repro.machine.cache.stack_distances`, which also decides
  the set-associative cache's LRU hits;
* :func:`set_pressure` — per ``(processor, cache set)`` count of
  *distinct* lines mapping to that set (the power-of-two aliasing
  signature the paper's data transforms remove shows up as a few sets
  with huge pressure): each processor's first touch of each line, which
  the reuse distances mark cold, binned by set;
* :func:`phase_array_heatmap` — access counts per (phase, array), the
  coarse map of which loop nest touches which data;
* :func:`collect_locality` — all of the above folded into one
  JSON-ready :class:`LocalityReport` with log2-binned histograms and
  exact p50/p95/max summaries.

Every analytic has a brute-force oracle
(:func:`reuse_distances_oracle`, :func:`set_pressure_oracle`) that the
test suite compares bit-exactly on random traces and on every
application's real stream; the oracles are the executable definitions,
the main implementations the fast paths.

All results are deterministic functions of the trace, so they are safe
to exact-match in bench snapshots: they are the locality fingerprint a
simulator rewrite (ROADMAP item 4) must preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.machine.cache import CacheConfig, stack_distances

__all__ = [
    "COLD",
    "ArrayLocality",
    "LocalityReport",
    "collect_locality",
    "log2_bin_histogram",
    "phase_array_heatmap",
    "pressure_summary",
    "reuse_distances",
    "reuse_distances_oracle",
    "set_pressure",
    "set_pressure_oracle",
]

COLD = -1  # reuse-distance marker for a first touch


# -- reuse distance ----------------------------------------------------------

def reuse_distances(
    proc: np.ndarray, addr: np.ndarray, line_bytes: int = 16
) -> np.ndarray:
    """Per-access LRU stack distance over cache lines, computed within
    each processor's own (program-ordered) access stream; ``-1`` marks
    cold first touches.  Input arrays are the merged stream in global
    program order."""
    return stack_distances(addr // line_bytes, proc)


def reuse_distances_oracle(
    proc: np.ndarray, addr: np.ndarray, line_bytes: int = 16
) -> np.ndarray:
    """O(n^2) executable definition of :func:`reuse_distances`."""
    line = (addr // line_bytes).tolist()
    procs = proc.tolist()
    out = np.full(len(line), COLD, dtype=np.int64)
    for i in range(len(line)):
        prev = None
        for j in range(i - 1, -1, -1):
            if procs[j] == procs[i] and line[j] == line[i]:
                prev = j
                break
        if prev is None:
            continue
        between = {
            line[j] for j in range(prev + 1, i) if procs[j] == procs[i]
        }
        out[i] = len(between)
    return out


# -- set pressure ------------------------------------------------------------

def set_pressure(
    proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig
) -> np.ndarray:
    """Distinct-line count per (processor, cache set): shape
    ``(nprocs, nsets)`` where ``nprocs = max(proc) + 1`` (0x0 on an
    empty stream).  Cell ``[p, s]`` is how many distinct lines
    processor ``p`` touched that map to set ``s`` — the conflict
    pressure the direct-mapped geometry exposes."""
    cold = reuse_distances(proc, addr, cfg.line_bytes) == COLD
    return _first_touches_by_set(proc, addr, cold, cfg)


def _first_touches_by_set(
    proc: np.ndarray, addr: np.ndarray, cold: np.ndarray, cfg: CacheConfig
) -> np.ndarray:
    """:func:`set_pressure` from the cold flags of the reuse distances:
    a processor's distinct lines are its first touches, so binning
    those by (processor, set) counts them."""
    nsets = cfg.nsets
    if len(addr) == 0:
        return np.zeros((0, nsets), dtype=np.int64)
    nprocs = int(proc.max()) + 1
    sets = cfg.set_of(cfg.line_of(addr[cold]))
    counts = np.bincount(proc[cold].astype(np.int64) * nsets + sets,
                         minlength=nprocs * nsets)
    return counts.reshape(nprocs, nsets)


def set_pressure_oracle(
    proc: np.ndarray, addr: np.ndarray, cfg: CacheConfig
) -> np.ndarray:
    """Dict-based executable definition of :func:`set_pressure`."""
    if len(addr) == 0:
        return np.zeros((0, cfg.nsets), dtype=np.int64)
    seen: Dict[Tuple[int, int], set] = {}
    for p, a in zip(proc.tolist(), addr.tolist()):
        line = a // cfg.line_bytes
        seen.setdefault((p, line % cfg.nsets), set()).add(line)
    nprocs = int(proc.max()) + 1
    out = np.zeros((nprocs, cfg.nsets), dtype=np.int64)
    for (p, s), lines in seen.items():
        out[p, s] = len(lines)
    return out


# -- phase x array heatmap ---------------------------------------------------

def phase_array_heatmap(space, traces) -> Dict[str, Any]:
    """Access counts per (phase, array) over one round of phase traces:
    ``{"phases": [...], "arrays": [...], "counts": [[int]]}`` with rows
    in phase order and columns in base-address order."""
    addr = np.concatenate([t.addr for t in traces]
                          or [np.zeros(0, dtype=np.int64)])
    return _heatmap(space.array_names, traces, space.array_index(addr))


def _heatmap(names: List[str], traces, index: np.ndarray) -> Dict[str, Any]:
    """:func:`phase_array_heatmap` from the owning-array index of the
    traces' concatenated accesses: each phase's row counts its slice."""
    rows: List[List[int]] = []
    end = 0
    for t in traces:
        start, end = end, end + t.n_accesses
        rows.append(np.bincount(index[start:end],
                                minlength=len(names)).tolist())
    return {
        "phases": [t.nest_name for t in traces],
        "arrays": names,
        "counts": rows,
    }


# -- histograms and the assembled report -------------------------------------

def log2_bin_histogram(values: np.ndarray) -> Dict[str, int]:
    """Histogram of non-negative ints in power-of-two bins, keyed by
    the bin's lower bound: ``"0"``, ``"1"``, ``"2"`` (2-3), ``"4"``
    (4-7), ... — name-ordered numerically in the returned dict."""
    v = values[values >= 0]
    if len(v) == 0:
        return {}
    # frexp's exponent is 0 for 0 and the bit length of v otherwise.
    counts = np.bincount(np.frexp(v)[1])
    out: Dict[str, int] = {}
    for k, c in enumerate(counts):
        if c:
            out[str(0 if k == 0 else 2 ** (k - 1))] = int(c)
    return out


@dataclass
class ArrayLocality:
    """Reuse-distance summary of one array's accesses."""

    name: str
    accesses: int
    cold: int  # first touches (no reuse distance)
    p50: float
    p95: float
    max: int
    hist: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "accesses": self.accesses,
            "cold": self.cold,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
            "hist": dict(self.hist),
        }


@dataclass
class LocalityReport:
    """All locality analytics of one simulated program, JSON-ready."""

    line_bytes: int
    nsets: int
    arrays: Dict[str, ArrayLocality] = field(default_factory=dict)
    set_pressure: Dict[str, Any] = field(default_factory=dict)
    heatmap: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "line_bytes": self.line_bytes,
            "nsets": self.nsets,
            "reuse": {
                name: self.arrays[name].as_dict()
                for name in sorted(self.arrays)
            },
            "set_pressure": dict(self.set_pressure),
            "heatmap": dict(self.heatmap),
        }


def pressure_summary(pressure: np.ndarray, nsets: int) -> Dict[str, Any]:
    """The report's ``set_pressure`` block of a (processor x set)
    distinct-line count matrix: its used cells' count, max, mean, p95
    and log2 histogram."""
    used = pressure[pressure > 0]
    return {
        "nsets": int(nsets),
        "used": int(len(used)),
        "max": int(used.max()) if len(used) else 0,
        "mean": float(used.mean()) if len(used) else 0.0,
        "p95": float(np.percentile(used, 95)) if len(used) else 0.0,
        "hist": log2_bin_histogram(used),
    }


def collect_locality(space, traces, cfg: CacheConfig) -> LocalityReport:
    """Fold one round of phase traces into a :class:`LocalityReport`.

    The reuse/pressure analytics run over the concatenated program-order
    stream of all phases (one time step) — the same stream the cache
    model replays — split per array for the reuse histograms.  The set
    pressure is read off the cold accesses of the reuse distances.
    """
    with obs.span("sim.locality", cat="machine") as sp:
        live = [t for t in traces if t.n_accesses]
        report = LocalityReport(line_bytes=cfg.line_bytes, nsets=cfg.nsets)
        if not live:
            report.heatmap = phase_array_heatmap(space, traces)
            report.set_pressure = pressure_summary(
                np.zeros((0, cfg.nsets), dtype=np.int64), cfg.nsets)
            return report
        addr = np.concatenate([t.addr for t in live])
        proc = np.concatenate([t.proc for t in live])
        sp.add("accesses", len(addr))

        dist = reuse_distances(proc, addr, cfg.line_bytes)
        # One owning-array search serves the heatmap and the reuse split.
        names, aidx = space.array_names, space.array_index(addr)
        report.heatmap = _heatmap(names, traces, aidx)
        for j, nm in enumerate(names):
            sel = aidx == j
            cnt = int(sel.sum())
            if not cnt:
                continue
            warm = dist[sel]
            warm = warm[warm >= 0]
            p50, p95 = (np.percentile(warm, [50, 95]).tolist() if len(warm)
                        else (0.0, 0.0))
            report.arrays[nm] = ArrayLocality(
                name=nm,
                accesses=cnt,
                cold=cnt - len(warm),
                p50=p50,
                p95=p95,
                max=int(warm.max()) if len(warm) else 0,
                hist=log2_bin_histogram(warm),
            )

        report.set_pressure = pressure_summary(
            _first_touches_by_set(proc, addr, dist == COLD, cfg), cfg.nsets)
        return report
