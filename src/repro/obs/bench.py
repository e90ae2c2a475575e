"""The exact bench gate.

:func:`run_bench` runs a pinned ``app x scheme x procs`` grid and
records each point's deterministic simulated-machine metrics — miss
classes, NUMA local/remote, conflict sets, locality digests and the
Section-4.3 addressing-overhead counts — with its wall-time ledger and
decision provenance, into a schema-versioned snapshot.
:func:`save_snapshot` persists snapshots as
``results/bench/BENCH_<timestamp>.json`` plus a repo-root
``BENCH_latest.json`` pointer, and :func:`compare_snapshots` gates a
new snapshot against a baseline with the exact rules of
:mod:`repro.obs.compare`:

* **simulated counters** — exact match, lists included (the simulator
  is deterministic, so *any* drift is a semantic change that must be
  either fixed or explicitly re-baselined);
* **wall-time ledger** (schema 3, from :mod:`repro.obs.perf`) — the
  row set and per-anchor run counts are deterministic and gated
  exactly.  Self times are not gated here; ``repro perf diff`` compares
  them between two snapshots taken on one host.

Nothing here is timed against a threshold: speed is measured by the
``perfbench/`` workloads.  ``python -m repro bench --compare
BENCH_latest.json`` exits nonzero on any failing row, which CI uses as
a gate (:func:`repro.report.format_regression_table` renders the
verdict).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import core as _obs_core
from repro.obs.compare import (
    flatten,
    host_fingerprint,
    ledger_moves,
    run_points,
)
from repro.util.atomicio import write_atomic

__all__ = [
    "SCHEMA_VERSION",
    "BenchComparison",
    "DeltaRow",
    "compare_snapshots",
    "run_bench",
    "save_snapshot",
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
SCHEMA_VERSION = 3

DEFAULT_APPS = ("simple", "stencil5")
DEFAULT_SCHEMES = ("base", "comp", "data")
DEFAULT_PROCS = (1, 4)
DEFAULT_N = 16
DEFAULT_SCALE = 16
DEFAULT_OUT_DIR = os.path.join("results", "bench")
LATEST_POINTER = "BENCH_latest.json"

# Statuses that fail the gate: a drifted simulated counter or ledger
# row, a vanished grid point, or an incomparable snapshot.
_FAILING = ("changed", "missing", "incomparable")


def _bench_point(session, point, prog) -> Dict[str, Any]:
    """Measure one grid coordinate (a
    :class:`~repro.pipeline.grid.GridPoint`) on the shared engine's
    program/machine mapping."""
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
                      locality=True)
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

    return {
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
        # gated; self times feed `perf diff` on one host).
        "perf": {"ledger": m["ledger"]},
        # Decision provenance rides along for `repro diff` root-cause
        # attribution; compare_snapshots never reads it, so this key
        # never affects the regression gate.
        "provenance": [r.as_dict() for r in prov],
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

    parsed = [parse_scheme(s) for s in schemes]
    session = CompileSession()
    saved_enabled = _obs_core._enabled
    saved_collector = _obs_core._collector
    points: List[Dict[str, Any]] = []
    # The shared engine enumerates the grid; programs are built once
    # per app (they repeat across schemes/procs).
    grid = make_grid(apps, [scheme_short_name(s) for s in parsed], procs,
                     n=n, time_steps=time_steps, scale=scale)
    progs: Dict[str, Any] = {}
    try:
        obs.disable()
        for point in grid:
            if point.app not in progs:
                progs[point.app] = point_program(point)
            points.append(_bench_point(session, point, progs[point.app]))
    finally:
        _obs_core._collector = saved_collector
        _obs_core._enabled = saved_enabled
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host": host_fingerprint(),
        "config": {
            "apps": list(apps),
            "schemes": [scheme_short_name(s) for s in parsed],
            "procs": list(procs),
            "n": n,
            "time_steps": time_steps,
            "scale": scale,
        },
        "points": points,
    }


# -- persistence -------------------------------------------------------------

def save_snapshot(
    snap: Dict[str, Any],
    out_dir: os.PathLike = DEFAULT_OUT_DIR,
    latest: Optional[os.PathLike] = LATEST_POINTER,
) -> Tuple[str, Optional[str]]:
    """Write ``BENCH_<timestamp>.json`` under ``out_dir`` and refresh
    the ``latest`` pointer file; returns ``(snapshot_path,
    latest_path)``.  ``latest=None`` skips the pointer."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = snap["created"].replace("-", "").replace(":", "")
    path = out / f"BENCH_{stamp}.json"
    serial = 0
    while path.exists():
        serial += 1
        path = out / f"BENCH_{stamp}-{serial}.json"
    write_atomic(path, json.dumps(snap, indent=1), fsync=False)
    latest_path: Optional[str] = None
    if latest is not None:
        pointer = {
            "schema": SCHEMA_VERSION,
            "pointer": str(path),
            "created": snap["created"],
        }
        write_atomic(latest, json.dumps(pointer, indent=1), fsync=False)
        latest_path = str(latest)
    return str(path), latest_path


# -- comparison --------------------------------------------------------------

@dataclass
class DeltaRow:
    """One compared metric of one grid point."""

    point: str
    metric: str
    baseline: Any
    current: Any
    status: str  # changed | missing | new | incomparable
    note: str = ""

    @property
    def failing(self) -> bool:
        return self.status in _FAILING


@dataclass
class BenchComparison:
    """Outcome of one baseline-vs-current snapshot comparison."""

    rows: List[DeltaRow] = field(default_factory=list)

    @property
    def regressions(self) -> List[DeltaRow]:
        return [r for r in self.rows if r.failing]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_snapshots(baseline: Dict[str, Any],
                      current: Dict[str, Any]) -> BenchComparison:
    """Gate ``current`` against ``baseline``: simulated counters and
    ledger row sets and counts must match exactly, every baseline point
    must still be there, and both snapshots must share a schema and a
    problem size.  Rows come back only for what failed or is new."""
    cmp = BenchComparison()
    if baseline.get("schema") != current.get("schema"):
        cmp.rows.append(DeltaRow(
            point="*", metric="schema",
            baseline=baseline.get("schema"), current=current.get("schema"),
            status="incomparable", note="snapshot schema differs",
        ))
        return cmp
    base_cfg = {k: v for k, v in baseline["config"].items()
                if k in ("n", "time_steps", "scale")}
    cur_cfg = {k: v for k, v in current["config"].items()
               if k in ("n", "time_steps", "scale")}
    if base_cfg != cur_cfg:
        cmp.rows.append(DeltaRow(
            point="*", metric="config",
            baseline=base_cfg, current=cur_cfg,
            status="incomparable",
            note="grids measured at different problem sizes",
        ))
        return cmp

    cur_points = run_points(current)
    base_points = run_points(baseline)
    for key, bp in base_points.items():
        cp = cur_points.get(key)
        if cp is None:
            cmp.rows.append(DeltaRow(
                point=key, metric="*", baseline="present", current="absent",
                status="missing", note="grid point vanished",
            ))
            continue
        # Simulated machine counters: exact match.
        base_sim = flatten(bp["sim"], "sim")
        cur_sim = flatten(cp["sim"], "sim")
        for metric in sorted(set(base_sim) | set(cur_sim)):
            both = metric in base_sim and metric in cur_sim
            if both and base_sim[metric] == cur_sim[metric]:
                continue
            cmp.rows.append(DeltaRow(
                point=key, metric=metric, baseline=base_sim.get(metric),
                current=cur_sim.get(metric), status="changed",
                note=("simulated counter drifted (exact-match gate)"
                      if both else "metric appeared/disappeared"),
            ))
        # Wall-time ledger (schema 3): a row that appeared or vanished,
        # or whose count drifted, fails; self times are not read.
        base_led = (bp.get("perf") or {}).get("ledger")
        cur_led = (cp.get("perf") or {}).get("ledger")
        if not (base_led and cur_led):
            continue
        for label, _, ra, rb, status, note in ledger_moves(
                base_led, cur_led, False):
            if status == "ok":
                continue
            if ra is None or rb is None:
                metric = f"perf.{label}"
                a = "present" if ra else "absent"
                b = "present" if rb else "absent"
            else:
                metric, a, b = f"perf.{label}.count", ra["count"], rb["count"]
            cmp.rows.append(DeltaRow(point=key, metric=metric, baseline=a,
                                     current=b, status=status, note=note))
    for key in cur_points:
        if key not in base_points:
            cmp.rows.append(DeltaRow(
                point=key, metric="*", baseline="absent", current="present",
                status="new", note="not in baseline",
            ))
    return cmp
