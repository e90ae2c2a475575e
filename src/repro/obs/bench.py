"""Persistent perf-regression harness.

The paper's claims are quantitative, so the repo tracks its own
performance trajectory: :func:`run_bench` executes a pinned
``app x scheme x procs`` grid, timing each point's simulation N times
(wall-clock percentiles) and recording the deterministic
simulated-machine metrics — miss classes, NUMA local/remote, conflict
sets, and the Section-4.3 addressing-overhead counts — into a
schema-versioned snapshot.  :func:`save_snapshot` persists snapshots as
``results/bench/BENCH_<timestamp>.json`` plus a repo-root
``BENCH_latest.json`` pointer, and :func:`compare_snapshots` gates a
new snapshot against a baseline with the rules of
:mod:`repro.obs.compare`:

* **wall time** — min-of-N against min-of-N past a relative tolerance
  and an absolute floor, and only when both snapshots come from the
  same host (a committed baseline from another machine can't gate
  wall time meaningfully);
* **simulated counters** — exact match, lists included (the simulator
  is deterministic, so *any* drift is a semantic change that must be
  either fixed or explicitly re-baselined);
* **wall-time ledger** (schema 3, from :mod:`repro.obs.perf`) — the
  row set and per-pass run counts are deterministic and gated exactly;
  per-row self times follow the wall rule above.

``python -m repro bench`` is the CLI;
``python -m repro bench --compare BENCH_latest.json`` exits nonzero on
regression, which CI uses as a gate
(:func:`repro.report.format_regression_table` renders the verdict).
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import core as _obs_core
from repro.obs.compare import (
    WALL_ABS_FLOOR,
    WALL_TOL,
    drift,
    flatten,
    ledger_moves,
    point_key,
    run_points,
    wall_gate,
)
from repro.util.atomicio import write_atomic

__all__ = [
    "SCHEMA_VERSION",
    "BenchComparison",
    "DeltaRow",
    "append_bench_series",
    "append_series",
    "compare_snapshots",
    "host_fingerprint",
    "load_series_lines",
    "run_bench",
    "save_snapshot",
    "series_path",
    "series_trends",
]

# Schema history:
#   1 — wall/sim (misses, addressing, numa, conflict) + provenance.
#   2 — adds sim.locality (reuse-distance / set-pressure / heatmap
#       fingerprint, exact-match gated).
#   3 — adds the per-point "perf.ledger" key (wall-time ledger from
#       repro.obs.perf — row set and counts exact-match gated,
#       self-time columns noise-gated like wall.min) and extends the
#       host fingerprint with cpu/cores so cross-host skips are
#       explainable.  Schema-2 baselines are incomparable; regenerate.
SCHEMA_VERSION = 3

DEFAULT_APPS = ("simple", "stencil5")
DEFAULT_SCHEMES = ("base", "comp", "data")
DEFAULT_PROCS = (1, 4)
DEFAULT_N = 16
DEFAULT_REPEATS = 3
DEFAULT_SCALE = 16
DEFAULT_OUT_DIR = os.path.join("results", "bench")
LATEST_POINTER = "BENCH_latest.json"

# History cap for the append-only series.jsonl: newest N lines are
# kept on rotation (mirrors the quarantine cap in repro.pipeline.store
# — bound the on-disk history, keep the most recent evidence).
SERIES_KEEP = 256

# compare.drift's sign as a verdict on a lower-is-better number.
_DRIFT_STATUS = {1: "regressed", -1: "improved", 0: "ok"}

# Statuses that fail the gate: a slower wall time, a drifted simulated
# counter, a vanished grid point, or an incomparable snapshot.
_FAILING = ("regressed", "changed", "missing", "incomparable")


def _cpu_model() -> str:
    """Best-effort CPU model string (``platform.processor()`` is empty
    on most Linux builds; fall back to /proc/cpuinfo)."""
    cpu = platform.processor()
    if not cpu:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.lower().startswith(("model name", "hardware")):
                        cpu = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return cpu or platform.machine()


def host_fingerprint() -> Dict[str, Any]:
    """Identity of the measuring machine; wall-time comparisons are
    only meaningful between equal fingerprints.  The fields double as
    the explanation when a comparison skips its wall gate —
    :func:`repro.obs.compare.wall_gate` names exactly which ones
    differ."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "node": platform.node(),
        "cpu": _cpu_model(),
        "cores": os.cpu_count() or 0,
    }


def _percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample list."""
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _bench_point(session, point, prog, repeats: int) -> Dict[str, Any]:
    """Measure one grid coordinate (a
    :class:`~repro.pipeline.grid.GridPoint`) on the shared engine's
    program/machine mapping."""
    from repro.codegen.spmd import parse_scheme
    from repro.machine.simulate import simulate
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

    # N timed repeats of the plain simulation for wall time (obs is
    # disabled here — run_bench turned it off around the grid, and
    # measure_point restored that state).
    spmd = m["spmd"]
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulate(spmd, machine)
        samples.append(time.perf_counter() - t0)

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
        "wall": {
            "repeats": repeats,
            "samples": samples,
            "min": min(samples),
            "p50": _percentile(samples, 0.5),
            "mean": sum(samples) / len(samples),
            "max": max(samples),
        },
        "sim": sim,
        # Schema 3: the wall-time ledger (row set + counts exact-match
        # gated, self-time noise-gated).
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
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, Any]:
    """Run the grid and return one schema-versioned snapshot dict.

    The global obs state is saved and restored around the run (the
    harness uses private collectors to read compiler counters without
    polluting — or being polluted by — whatever the caller records).
    """
    from repro.codegen.spmd import parse_scheme, scheme_short_name
    from repro.pipeline.grid import GridSpec, point_program
    from repro.pipeline.session import CompileSession

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    parsed = [parse_scheme(s) for s in schemes]
    session = CompileSession()
    saved_enabled = _obs_core._enabled
    saved_collector = _obs_core._collector
    points: List[Dict[str, Any]] = []
    # The shared engine enumerates the grid; programs are built once
    # per app (they repeat across schemes/procs).
    spec = GridSpec(
        apps=tuple(apps),
        schemes=tuple(scheme_short_name(s) for s in parsed),
        procs=tuple(procs),
        n=n, time_steps=time_steps, scale=scale,
    )
    progs: Dict[str, Any] = {}
    try:
        obs.disable()
        for point in spec.points():
            if point.app not in progs:
                progs[point.app] = point_program(point)
            points.append(_bench_point(
                session, point, progs[point.app], repeats))
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
            "repeats": repeats,
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


def series_path() -> str:
    """The default benchmark-history file."""
    root = os.environ.get("REPRO_RESULTS_DIR", "results")
    return os.path.join(root, "bench", "series.jsonl")


def append_series(name: str, payload: Dict[str, Any],
                  path: Optional[os.PathLike] = None,
                  keep: int = SERIES_KEEP) -> str:
    """Append one experiment's measured series to the benchmark history
    (default ``$REPRO_RESULTS_DIR/bench/series.jsonl``): one
    timestamped, host-stamped JSON object per line, so every benchmark
    run grows a comparable time series next to the ``bench`` grid
    snapshots.  Returns the path written.

    The file is capped at ``keep`` lines: when an append pushes it
    over, the newest ``keep`` lines are rewritten atomically (temp file
    + rename) and the rotation is counted on the
    ``bench.series.rotated`` / ``bench.series.dropped`` obs counters.
    """
    if path is None:
        path = series_path()
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    line = {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host": host_fingerprint(),
        "name": name,
        **payload,
    }
    with open(p, "a") as fh:
        fh.write(json.dumps(line, default=str) + "\n")
    if keep and keep > 0:
        with open(p) as fh:
            lines = fh.readlines()
        if len(lines) > keep:
            dropped = len(lines) - keep
            write_atomic(p, "".join(lines[-keep:]), fsync=False)
            obs.inc("bench.series.rotated")
            obs.counter("bench.series.dropped").add(dropped)
    return str(p)


def append_bench_series(snap: Dict[str, Any],
                        path: Optional[os.PathLike] = None) -> str:
    """Append a ``repro bench`` snapshot's per-point digest (wall p50,
    total miss count) to the series history, closing the loop that made
    ``series.jsonl`` write-only: every bench run becomes one comparable
    trend sample per grid point."""
    points = []
    for p in snap.get("points", []):
        sim = p.get("sim") or {}
        points.append({
            "point": point_key(p),
            "wall_p50": (p.get("wall") or {}).get("p50"),
            "misses": sum((sim.get("misses") or {}).values()),
        })
    return append_series("bench", {"kind": "bench", "points": points},
                         path=path)


def load_series_lines(path: Optional[os.PathLike] = None
                      ) -> List[Dict[str, Any]]:
    """Read the series history leniently: unparsable lines are dropped
    (the file is append-only across many runs; one garbled line must
    not hide the rest), a missing file is an empty history."""
    if path is None:
        path = series_path()
    lines: List[Dict[str, Any]] = []
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError:
        return lines
    for text in raw:
        text = text.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except ValueError:
            continue
        if isinstance(record, dict):
            lines.append(record)
    return lines


def series_trends(lines: Sequence[Dict[str, Any]],
                  wall_tol: float = WALL_TOL,
                  wall_abs_floor: float = WALL_ABS_FLOOR
                  ) -> List[Dict[str, Any]]:
    """Per-metric trend rows from the series history.

    Two line shapes feed the history: ``bench`` digests (per grid
    point: wall p50 + total misses, from :func:`append_bench_series`)
    and benchmark figure curves (``series: {scheme: [[procs,
    speedup], ...]}`` from the pytest harness).  Each is rolled up by
    its natural key and the last sample is judged against the previous
    one by :func:`repro.obs.compare.drift`: wall time regresses when it
    grows past ``wall_tol`` relative *and* ``wall_abs_floor`` absolute
    (the bench gate's rule), speedup regresses when it shrinks past
    ``wall_tol`` relative, and a
    drifted miss count is flagged — the simulator is deterministic, so
    any miss drift is a semantic change.
    """
    bench_hist: Dict[str, List[Dict[str, Any]]] = {}
    curve_hist: Dict[str, List[Dict[str, Any]]] = {}
    for line in lines:
        created = line.get("created", "")
        if line.get("kind") == "bench":
            for p in line.get("points") or []:
                key = p.get("point")
                wall = p.get("wall_p50")
                if not key or not isinstance(wall, (int, float)):
                    continue
                bench_hist.setdefault(str(key), []).append({
                    "wall_p50": float(wall),
                    "misses": p.get("misses"),
                    "created": created,
                })
        elif isinstance(line.get("series"), dict):
            for scheme, pts in sorted(line["series"].items()):
                try:
                    procs, speedup = max(
                        ((float(p), float(s)) for p, s in pts),
                        key=lambda t: t[0])
                except (TypeError, ValueError):
                    continue
                key = f"{line.get('name', '?')}:{scheme}@P{procs:g}"
                curve_hist.setdefault(key, []).append({
                    "speedup": speedup,
                    "created": created,
                })

    rows: List[Dict[str, Any]] = []
    # (kind, unit, value field, digits, floor, sign of a regression,
    # its note): wall time regresses growing, speedup shrinking.
    for kind, unit, fld, digits, floor, worse, why, hists in (
            ("bench", "wall p50 s", "wall_p50", 6, wall_abs_floor, 1,
             f"wall p50 over +{wall_tol:.0%}", bench_hist),
            ("figure", "speedup", "speedup", 4, 0.0, -1,
             f"speedup down >{wall_tol:.0%}", curve_hist)):
        for key, hist in sorted(hists.items()):
            last, prev = hist[-1], (hist[-2] if len(hist) > 1 else None)
            status, note = "new", ""
            if prev is not None:
                move = worse * drift(prev[fld], last[fld], wall_tol, floor)
                status = _DRIFT_STATUS[move]
                note = why if move > 0 else ""
                if (last.get("misses") is not None
                        and prev.get("misses") is not None
                        and last["misses"] != prev["misses"]):
                    status = "changed"
                    note = (f"miss count drifted "
                            f"{prev['misses']} → {last['misses']}")
            rows.append({
                "key": key, "kind": kind, "unit": unit,
                "runs": len(hist), "value": round(last[fld], digits),
                "prev": (round(prev[fld], digits)
                         if prev is not None else None),
                "misses": last.get("misses"),
                "status": status, "note": note,
                "created": last.get("created", ""),
            })
    return rows


# -- comparison --------------------------------------------------------------

@dataclass
class DeltaRow:
    """One compared metric of one grid point."""

    point: str
    metric: str
    baseline: Any
    current: Any
    status: str  # ok | improved | regressed | changed | missing | new
                 # | skipped | incomparable
    note: str = ""

    @property
    def failing(self) -> bool:
        return self.status in _FAILING


@dataclass
class BenchComparison:
    """Outcome of one baseline-vs-current snapshot comparison."""

    rows: List[DeltaRow] = field(default_factory=list)
    wall_tol: float = WALL_TOL
    wall_abs_floor: float = WALL_ABS_FLOOR
    wall_gated: bool = True

    @property
    def regressions(self) -> List[DeltaRow]:
        return [r for r in self.rows if r.failing]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_snapshots(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    wall_tol: float = WALL_TOL,
    wall_abs_floor: float = WALL_ABS_FLOOR,
) -> BenchComparison:
    """Gate ``current`` against ``baseline``.

    Simulated counters must match exactly (any drift fails); wall time
    fails only when the current min-of-N exceeds the baseline min-of-N
    by more than ``wall_tol`` relative AND ``wall_abs_floor`` seconds
    absolute — and is skipped entirely when the host fingerprints
    differ.
    """
    cmp = BenchComparison(wall_tol=wall_tol, wall_abs_floor=wall_abs_floor)
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
    cmp.wall_gated, mismatch = wall_gate(baseline, current)
    host_note = (f"different host ({mismatch}); wall gate off"
                 if mismatch else "different host; wall gate off")

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
        # Wall time: min-of-N under the noise rule, same host only.
        base_min = bp["wall"]["min"]
        cur_min = cp["wall"]["min"]
        if not cmp.wall_gated:
            status, note = "skipped", host_note
        else:
            move = drift(base_min, cur_min, wall_tol, wall_abs_floor)
            status = _DRIFT_STATUS[move]
            note = (f"min-of-N wall time over +{wall_tol:.0%} threshold"
                    if move > 0 else
                    "consider re-baselining" if move < 0 else "")
        cmp.rows.append(DeltaRow(
            point=key, metric="wall.min",
            baseline=base_min, current=cur_min, status=status, note=note,
        ))
        # Wall-time ledger (schema 3): structure drift and slower rows
        # fail; quiet and faster rows are omitted (a point carries a
        # dozen).
        base_led = (bp.get("perf") or {}).get("ledger")
        cur_led = (cp.get("perf") or {}).get("ledger")
        if not (base_led and cur_led):
            continue
        for label, _, ra, rb, status, note in ledger_moves(
                base_led, cur_led, cmp.wall_gated, wall_tol,
                wall_abs_floor):
            if status not in _FAILING:
                continue
            if ra is None or rb is None:
                metric = f"perf.{label}"
                a = "present" if ra else "absent"
                b = "present" if rb else "absent"
            elif status == "changed":
                metric, a, b = f"perf.{label}.count", ra["count"], rb["count"]
            else:
                metric = f"perf.{label}.self_s"
                a, b = float(ra["self_s"]), float(rb["self_s"])
            cmp.rows.append(DeltaRow(point=key, metric=metric, baseline=a,
                                     current=b, status=status, note=note))
    for key in cur_points:
        if key not in base_points:
            cmp.rows.append(DeltaRow(
                point=key, metric="*", baseline="absent", current="present",
                status="new", note="not in baseline",
            ))
    return cmp
