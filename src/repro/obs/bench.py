"""The bench recorder.

:func:`run_bench` runs a pinned ``app x scheme x procs`` grid and
records each point's deterministic simulated-machine metrics — miss
classes, NUMA local/remote, conflict sets, locality digests and the
Section-4.3 addressing-overhead counts — with its wall-time ledger and
decision provenance, into a schema-versioned snapshot, and
:func:`save_snapshot` writes it (``repro bench --json PATH``).
:func:`bench_point` measures one coordinate; ``repro perf``'s payload
is the one-point snapshot of its coordinate, with the sampled stacks
added.

Nothing here judges a snapshot: ``repro diff``
(:func:`repro.obs.compare.diff_runs`) gates two of them — simulated
counters and the ledger's row sets and counts exactly, self times
only reported, and only between same-host runs — and CI runs it
against the committed ``results/bench/BENCH_baseline.json``.  Speed is measured by the
``perfbench/`` workloads.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import core as _obs_core
from repro.obs.compare import host_fingerprint
from repro.util.atomicio import write_atomic

__all__ = [
    "SCHEMA_VERSION",
    "bench_point",
    "run_bench",
    "save_snapshot",
    "snapshot",
]

# Schema history:
#   1 — wall/sim (misses, addressing, numa, conflict) + provenance.
#   2 — adds sim.locality (reuse-distance / set-pressure / heatmap
#       fingerprint, exact-match gated).
#   3 — adds the per-point "perf.ledger" key (wall-time ledger from
#       repro.obs.perf — row set and counts exact-match gated) and
#       extends the host fingerprint with cpu/cores.  Schema-2
#       baselines are incomparable; regenerate.
# Points no longer carry the timed "wall" block; nothing compared it
# exactly, so schema 3 snapshots that still have it compare unchanged.
# A `repro perf` payload is a schema-3 snapshot too (its point adds
# "perf.stacks"); the old schema-1 perf payloads read incomparable.
SCHEMA_VERSION = 3

DEFAULT_APPS = ("simple", "stencil5")
DEFAULT_SCHEMES = ("base", "comp", "data")
DEFAULT_PROCS = (1, 4)
DEFAULT_N = 16
DEFAULT_SCALE = 16


def bench_point(session, point, prog, *,
                collect_stacks: bool = False
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one grid coordinate (a
    :class:`~repro.pipeline.grid.GridPoint`) on the shared engine's
    program/machine mapping; returns its snapshot point and the
    :func:`~repro.obs.perf.measure_point` window.  ``repro bench``
    and ``repro perf`` build their points here, so ``repro diff``
    gates a perf payload exactly as it gates a bench snapshot;
    ``collect_stacks`` adds ``perf.stacks``."""
    from repro.codegen.spmd import parse_scheme
    from repro.obs.perf import measure_point
    from repro.pipeline.grid import point_machine

    scheme = parse_scheme(point.scheme)
    nprocs = point.nprocs
    machine = point_machine(point, prog)
    # One observed window (private collector, "perf.point" root span)
    # measures the compile, captures the addressing-overhead counters
    # the optimized emitter emits, runs the detail simulation for the
    # deterministic machine metrics, and yields the wall-time ledger.
    m = measure_point(session, prog, scheme, nprocs, machine,
                      collect_stacks=collect_stacks)
    res = m["res"]
    compile_s = m["compile_s"]
    addressing = m["addressing"]
    prov = m["provenance"]
    sim: Dict[str, Any] = {
        "total_time": res.total_time,
        "n_accesses": res.n_accesses,
        "misses": {k: int(v) for k, v in sorted(res.miss_breakdown.items())},
        "addressing": addressing,
    }
    if res.numa:
        sim["numa"] = {
            "local_misses": int(res.numa["local_misses"]),
            "remote_misses": int(res.numa["remote_misses"]),
            "local_ratio": float(res.numa["local_ratio"]),
        }
    if res.conflict_sets:
        cs = res.conflict_sets
        sim["conflict"] = {
            "replacement_misses": int(cs["replacement_misses"]),
            "nsets": int(cs["nsets"]),
            "max_per_set": int(cs["max_per_set"]),
        }
    if res.locality:
        # Deterministic locality fingerprint: lives under "sim" so the
        # exact-match gate covers it — a simulator rewrite that changes
        # any reuse/pressure histogram fails the bench comparison.
        sim["locality"] = res.locality
    perf: Dict[str, Any] = {"ledger": m["ledger"]}
    if collect_stacks:
        perf["stacks"] = m["stacks"]

    entry = {
        "app": point.app,
        "scheme": point.scheme,
        "nprocs": nprocs,
        # Machine geometry fingerprint (DashConfig.fingerprint).  Not
        # under "sim", so the exact-match gate never reads it; `repro
        # diff` uses it to attribute divergences to machine-config
        # changes, and the result store keys on it.
        "machine_fp": machine.fingerprint(),
        "compile_s": compile_s,
        "sim": sim,
        # Schema 3: the wall-time ledger (row set + counts exact-match
        # gated; `repro diff` ranks self-time moves on one host).
        "perf": perf,
        # Decision provenance rides along for `repro diff` root-cause
        # attribution; the judge never compares it, so this key never
        # makes two runs differ.
        "provenance": [r.as_dict() for r in prov],
    }
    return entry, m


def snapshot(points: List[Dict[str, Any]], *, apps: Sequence[str],
             schemes: Sequence[str], procs: Sequence[int], n: int,
             time_steps: Optional[int], scale: int) -> Dict[str, Any]:
    """The schema-versioned snapshot of measured ``points``; ``schemes``
    are short names."""
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host": host_fingerprint(),
        "config": {
            "apps": list(apps),
            "schemes": list(schemes),
            "procs": list(procs),
            "n": n,
            "time_steps": time_steps,
            "scale": scale,
        },
        "points": points,
    }


def run_bench(
    apps: Sequence[str] = DEFAULT_APPS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    procs: Sequence[int] = DEFAULT_PROCS,
    n: int = DEFAULT_N,
    time_steps: Optional[int] = None,
    scale: int = DEFAULT_SCALE,
) -> Dict[str, Any]:
    """Run the grid and return one schema-versioned snapshot dict.

    The global obs state is saved and restored around the run (the
    harness uses private collectors to read compiler counters without
    polluting — or being polluted by — whatever the caller records).
    """
    from repro.codegen.spmd import parse_scheme, scheme_short_name
    from repro.pipeline.grid import make_grid, point_program
    from repro.pipeline.session import CompileSession

    short = [scheme_short_name(parse_scheme(s)) for s in schemes]
    session = CompileSession()
    saved_enabled = _obs_core._enabled
    saved_collector = _obs_core._collector
    points: List[Dict[str, Any]] = []
    # The shared engine enumerates the grid; programs are built once
    # per app (they repeat across schemes/procs).
    grid = make_grid(apps, short, procs, n=n, time_steps=time_steps,
                     scale=scale)
    progs: Dict[str, Any] = {}
    try:
        obs.disable()
        for point in grid:
            if point.app not in progs:
                progs[point.app] = point_program(point)
            points.append(bench_point(session, point,
                                      progs[point.app])[0])
    finally:
        _obs_core._collector = saved_collector
        _obs_core._enabled = saved_enabled
    return snapshot(points, apps=apps, schemes=short, procs=procs, n=n,
                    time_steps=time_steps, scale=scale)


# -- persistence -------------------------------------------------------------

def save_snapshot(snap: Dict[str, Any], path: os.PathLike) -> None:
    """Write one snapshot to ``path`` atomically (no fsync: a crash
    costs at most this run).  A missing directory is an ``OSError``,
    as for every other ``--json PATH``."""
    write_atomic(path, json.dumps(snap, indent=1), fsync=False,
                 mkdirs=False)
