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
  with huge pressure);
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
    nsets = cfg.nsets
    if len(addr) == 0:
        return np.zeros((0, nsets), dtype=np.int64)
    line = addr // cfg.line_bytes
    nprocs = int(proc.max()) + 1
    span = int(line.max()) + 1
    # A sort and a neighbour mask: np.unique may take a slower hash
    # path on integer keys.
    uniq = np.sort(proc.astype(np.int64) * span + line)
    uniq = uniq[np.append(True, uniq[1:] != uniq[:-1])]
    up = uniq // span
    uline = uniq % span
    uset = uline % nsets
    counts = np.bincount(up * nsets + uset, minlength=nprocs * nsets)
    return counts.reshape(nprocs, nsets).astype(np.int64)


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

def _array_index(space, addr: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """Map every address onto its owning array (arrays are laid out
    contiguously, so this is a binary search over sorted bases)."""
    names = sorted(space.bases, key=lambda nm: space.bases[nm])
    starts = np.array([space.bases[nm] for nm in names], dtype=np.int64)
    return names, np.searchsorted(starts, addr, side="right") - 1


def phase_array_heatmap(space, traces) -> Dict[str, Any]:
    """Access counts per (phase, array) over one round of phase traces:
    ``{"phases": [...], "arrays": [...], "counts": [[int]]}`` with rows
    in phase order and columns in base-address order."""
    names = sorted(space.bases, key=lambda nm: space.bases[nm])
    rows: List[List[int]] = []
    for t in traces:
        if t.n_accesses:
            _, aidx = _array_index(space, t.addr)
            counts = np.bincount(aidx, minlength=len(names))
        else:
            counts = np.zeros(len(names), dtype=np.int64)
        rows.append([int(c) for c in counts])
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
    idx = np.zeros(len(v), dtype=np.int64)
    nz = v > 0
    idx[nz] = np.floor(np.log2(v[nz])).astype(np.int64) + 1
    counts = np.bincount(idx)
    out: Dict[str, int] = {}
    for k, c in enumerate(counts):
        if c:
            out[str(0 if k == 0 else 2 ** (k - 1))] = int(c)
    return out


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q))


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


def collect_locality(space, traces, cfg: CacheConfig) -> LocalityReport:
    """Fold one round of phase traces into a :class:`LocalityReport`.

    The reuse/pressure analytics run over the concatenated program-order
    stream of all phases (one time step) — the same stream the cache
    model replays — split per array for the reuse histograms.
    """
    with obs.span("sim.locality", cat="machine") as sp:
        live = [t for t in traces if t.n_accesses]
        report = LocalityReport(line_bytes=cfg.line_bytes, nsets=cfg.nsets)
        report.heatmap = phase_array_heatmap(space, traces)
        if not live:
            report.set_pressure = {
                "nsets": int(cfg.nsets), "used": 0, "max": 0,
                "mean": 0.0, "p95": 0.0, "hist": {},
            }
            return report
        addr = np.concatenate([t.addr for t in live])
        proc = np.concatenate([t.proc for t in live])
        sp.add("accesses", len(addr))

        dist = reuse_distances(proc, addr, cfg.line_bytes)
        names, aidx = _array_index(space, addr)
        for j, nm in enumerate(names):
            sel = aidx == j
            cnt = int(sel.sum())
            if not cnt:
                continue
            d = dist[sel]
            warm = d[d >= 0]
            report.arrays[nm] = ArrayLocality(
                name=nm,
                accesses=cnt,
                cold=int((d == COLD).sum()),
                p50=_pct(warm, 50) if len(warm) else 0.0,
                p95=_pct(warm, 95) if len(warm) else 0.0,
                max=int(warm.max()) if len(warm) else 0,
                hist=log2_bin_histogram(d),
            )

        pressure = set_pressure(proc, addr, cfg)
        used = pressure[pressure > 0]
        report.set_pressure = {
            "nsets": int(cfg.nsets),
            "used": int(len(used)),
            "max": int(used.max()) if len(used) else 0,
            "mean": float(used.mean()) if len(used) else 0.0,
            "p95": _pct(used, 95) if len(used) else 0.0,
            "hist": log2_bin_histogram(used),
        }
        return report
