"""Differential performance attribution: the wall-time ledger and the
``repro perf`` engines.

``repro diff`` root-causes *semantic* divergence over decision
provenance; this module attributes a *wall-time* delta to the passes,
simulator phases, and functions responsible.  Three pieces:

* :func:`build_ledger` — an **exhaustive, reconciled** accounting of
  one recording.  Every span's *self* time (duration minus its direct
  children) is rolled up into the nearest enclosing **anchor** row —
  the ``pass.<name>`` stage spans of
  :class:`~repro.pipeline.session.CompileSession`, the simulator's
  ``sim.phase``/``sim.trace``/``sim.classify``/``sim.locality`` hooks
  — or an ``other/<span>`` row when no anchor encloses it.  The
  difference between the measured wall total and the sum of all span
  self-times lands in an explicit ``<unattributed>`` residual row, so
  the rows **must** sum back to the measured total: the accounting is
  falsifiable, and :func:`ledger_reconciles` is the check tests run on
  every point.
* :func:`measure_point` / :func:`record_point` — one observed
  compile + simulate window producing the ledger and the deterministic
  machine metrics, plus — for ``perf record`` — a collapsed-stack
  sample (:mod:`repro.obs.flame` renders it); ``repro bench`` stores
  the ledger per grid point since snapshot schema 3.
* :func:`perf_diff` — aligns two runs (bench snapshots or ``perf
  record`` payloads) and ranks the ledger rows whose self-time moved,
  judged by :func:`repro.obs.compare.ledger_moves`: row *sets* and
  *counts* are deterministic and gated exactly (as ``bench --compare``
  gates them); self-time columns are gated only on the same host and
  only past a relative tolerance AND an absolute floor.

Ledger reconciliation rules (the falsifiability contract):

1. ``sum(row.self_s for all rows) == total_s`` to float rounding —
   the span-tree self-time decomposition is exact, and the residual
   row absorbs everything outside any span.
2. ``<unattributed>`` is never negative beyond rounding: the total is
   clocked from *before* the root span opens.
3. Anchor row counts equal the number of times the anchor span itself
   ran (descendant spans add time, never count), so pass-row counts
   are exactly the session's stage run counts — deterministic, and
   exact-match-gated by ``bench --compare``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.obs import core as _obs_core
from repro.obs.compare import (
    WALL_ABS_FLOOR,
    WALL_TOL,
    host_fingerprint,
    ledger_moves,
    run_points,
    wall_gate,
)

__all__ = [
    "PERF_SCHEMA",
    "UNATTRIBUTED",
    "PerfDiff",
    "PerfRowDelta",
    "build_ledger",
    "ledger_reconciles",
    "measure_point",
    "perf_diff",
    "record_point",
]

PERF_SCHEMA = 1
UNATTRIBUTED = "<unattributed>"

# Reconciliation slack: the decomposition is exact, so only float
# rounding separates the row sum from the measured total.
RECONCILE_REL_TOL = 1e-6
RECONCILE_ABS_TOL = 1e-6


def _anchor_key(name: str, attrs: Mapping[str, Any]
                ) -> Optional[Tuple[str, str]]:
    """The ledger row a span *is* (not merely contributes to)."""
    if name.startswith("pass."):
        return ("pass", name[len("pass."):])
    if name == "sim.phase":
        return ("phase", str(attrs.get("nest", "?")))
    if name.startswith("sim.trace"):
        return ("sim", "trace")
    if name == "sim.classify":
        return ("sim", "classify")
    if name == "sim.locality":
        return ("sim", "locality")
    if name == "sim.simulate":
        return ("sim", "simulate")
    return None


def build_ledger(collector: Optional[_obs_core.Collector] = None,
                 total_s: float = 0.0) -> Dict[str, Any]:
    """Roll one recording's spans up into the wall-time ledger.

    ``total_s`` is the externally measured wall total the rows must
    reconcile against; the gap between it and the span sum becomes the
    ``<unattributed>`` residual row (kind ``residual``, count 0).
    """
    c = collector or _obs_core.collector()
    spans = list(c.spans)
    by_id = {s.span_id: s for s in spans}
    child_sum: Dict[int, float] = {}
    for s in spans:
        if s.parent_id in by_id:
            child_sum[s.parent_id] = (
                child_sum.get(s.parent_id, 0.0) + (s.end - s.start))

    anchor_cache: Dict[int, Optional[Tuple[str, str]]] = {}

    def anchor_of(s: _obs_core.Span) -> Optional[Tuple[str, str]]:
        if s.span_id in anchor_cache:
            return anchor_cache[s.span_id]
        key = _anchor_key(s.name, s.attrs)
        if key is None and s.parent_id in by_id:
            key = anchor_of(by_id[s.parent_id])
        anchor_cache[s.span_id] = key
        return key

    rows: Dict[Tuple[str, str], Dict[str, Any]] = {}
    span_sum = 0.0
    for s in spans:
        self_s = (s.end - s.start) - child_sum.get(s.span_id, 0.0)
        span_sum += self_s
        key = anchor_of(s) or ("other", s.name)
        row = rows.get(key)
        if row is None:
            row = rows[key] = {"kind": key[0], "name": key[1],
                               "self_s": 0.0, "count": 0}
        row["self_s"] += self_s
        # Only the anchor span itself bumps the count; descendants
        # roll time in silently.  "other" rows count raw spans.
        if key[0] == "other" or _anchor_key(s.name, s.attrs) == key:
            row["count"] += 1
    unattributed = total_s - span_sum
    out_rows = [rows[k] for k in sorted(rows)]
    out_rows.append({"kind": "residual", "name": UNATTRIBUTED,
                     "self_s": unattributed, "count": 0})
    return {
        "total_s": total_s,
        "attributed_s": span_sum,
        "unattributed_s": unattributed,
        "rows": out_rows,
    }


def ledger_reconciles(ledger: Mapping[str, Any],
                      rel_tol: float = RECONCILE_REL_TOL,
                      abs_tol: float = RECONCILE_ABS_TOL
                      ) -> Tuple[bool, float]:
    """Check rule 1: rows (incl. residual) sum to the measured total.

    Returns ``(ok, row_sum)`` so callers can report the drift.
    """
    total = float(ledger["total_s"])
    row_sum = sum(float(r["self_s"]) for r in ledger["rows"])
    ok = abs(row_sum - total) <= max(abs_tol, rel_tol * abs(total))
    return ok, row_sum


# -- measurement -------------------------------------------------------------

def measure_point(session, prog, scheme, nprocs: int, machine, *,
                  locality: bool = True, collect_stacks: bool = False,
                  interval: Optional[int] = None) -> Dict[str, Any]:
    """One observed compile + detail-simulate window for one point.

    Opens a private collector, records the whole window under a
    ``perf.point`` root span, and returns the ledger, the simulation
    result (deterministic machine metrics), the addressing counters
    and the captured decision provenance.  With ``collect_stacks`` it
    also returns collapsed ``stacks`` from a *separate* sampled
    simulation, kept outside the ledger window since the profiling
    hook would inflate it.  The global obs state is saved and
    restored.  As in :mod:`timeit`, the window runs after a full
    collection with the collector off, so no pause lands in a row.
    """
    from repro.codegen.emit_optimized import emit_optimized_program
    from repro.machine.simulate import simulate
    from repro.obs import provenance

    saved_enabled = _obs_core._enabled
    saved_collector = _obs_core._collector
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        obs.enable(reset=True)
        t_start = time.perf_counter()
        with obs.span("perf.point", cat="perf", program=prog.name,
                      scheme=scheme.value, nprocs=nprocs):
            t0 = time.perf_counter()
            spmd = session.compile(prog, scheme, nprocs)
            compile_s = time.perf_counter() - t0
            prov = session.last_provenance.copy()
            with provenance.capture() as addr_records:
                emit_optimized_program(spmd)
            prov.extend(addr_records)
            res = simulate(spmd, machine, detail=True, locality=locality)
        total_s = time.perf_counter() - t_start
        counters = obs.collector().metrics.snapshot()["counters"]
        addressing = {
            name.split(".", 1)[1]: value
            for name, value in counters.items()
            if name.startswith("addropt.")
        }
        ledger = build_ledger(obs.collector(), total_s)
    finally:
        if gc_was_enabled:
            gc.enable()
        _obs_core._collector = saved_collector
        _obs_core._enabled = saved_enabled

    out = {
        "res": res,
        "compile_s": compile_s,
        "addressing": addressing,
        "ledger": ledger,
        "provenance": prov,
    }
    if collect_stacks:
        from repro.obs.hotspot import DEFAULT_INTERVAL, HotspotProfiler

        with HotspotProfiler(interval or DEFAULT_INTERVAL) as sampler:
            simulate(spmd, machine)
        out["stacks"] = sampler.report().collapsed()
    return out


def record_point(app: str, scheme, nprocs: int, *, n: int = 16,
                 time_steps: Optional[int] = None, scale: int = 16,
                 interval: Optional[int] = None) -> Dict[str, Any]:
    """``repro perf record``: measure one (app, scheme, procs) point
    on the shared grid engine's program/machine mapping and return a
    bench-snapshot-shaped payload (``repro diff`` and :func:`perf_diff`
    both accept it directly)."""
    from datetime import datetime, timezone

    from repro.codegen.spmd import scheme_short_name
    from repro.pipeline.grid import make_grid, point_machine, point_program
    from repro.pipeline.session import CompileSession

    point, = make_grid([app], [scheme_short_name(scheme)], [int(nprocs)],
                       n=n, time_steps=time_steps, scale=scale)
    prog = point_program(point)
    machine = point_machine(point, prog)
    m = measure_point(CompileSession(), prog, scheme, nprocs,
                      machine, locality=False, collect_stacks=True,
                      interval=interval)
    res = m["res"]
    return {
        "schema": PERF_SCHEMA,
        "kind": "perf",
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host": host_fingerprint(),
        "config": {"app": app, "scheme": point.scheme, "nprocs": nprocs,
                   "n": n, "time_steps": time_steps, "scale": scale},
        "points": [{
            "app": point.app,
            "scheme": point.scheme,
            "nprocs": nprocs,
            "machine_fp": machine.fingerprint(),
            "compile_s": m["compile_s"],
            "sim": {"total_time": res.total_time,
                    "n_accesses": res.n_accesses},
            "perf": {"ledger": m["ledger"], "stacks": m["stacks"]},
        }],
    }


# -- diffing -----------------------------------------------------------------

@dataclass
class PerfRowDelta:
    """One aligned ledger row of one grid point."""

    point: str
    row: str    # "pass/layout", "phase/<nest>", "sim/trace", residual name
    kind: str
    baseline: Optional[float]  # self_s, seconds
    current: Optional[float]
    base_count: Optional[int] = None
    cur_count: Optional[int] = None
    status: str = "ok"  # ok | regressed | improved | changed | skipped
    note: str = ""

    @property
    def delta(self) -> float:
        return (self.current or 0.0) - (self.baseline or 0.0)

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "delta": self.delta}


@dataclass
class PerfDiff:
    """Outcome of one run-vs-run ledger alignment."""

    rows: List[PerfRowDelta] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    n_points: int = 0
    n_rows: int = 0
    wall_gated: bool = True
    host_note: str = ""
    wall_tol: float = WALL_TOL
    wall_abs_floor: float = WALL_ABS_FLOOR

    @property
    def significant(self) -> bool:
        return bool(self.culprits)

    @property
    def culprits(self) -> List[PerfRowDelta]:
        return [r for r in self.rows
                if r.status in ("regressed", "improved", "changed")]

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "rows": [r.as_dict() for r in self.rows],
                "significant": self.significant}


def perf_diff(run_a: Mapping[str, Any], run_b: Mapping[str, Any],
              wall_tol: float = WALL_TOL,
              wall_abs_floor: float = WALL_ABS_FLOOR) -> PerfDiff:
    """Align two runs' ledgers and rank the rows that moved.

    Rows are judged by :func:`repro.obs.compare.ledger_moves`: the row
    *set* and anchor *counts* are deterministic, so any drift is
    ``changed`` (significant) regardless of host, exactly as ``bench
    --compare`` gates them; ``self_s`` columns are wall-clock, so they are
    compared only when both runs share a host fingerprint, and flagged
    only past ``wall_tol`` relative AND ``wall_abs_floor`` seconds
    absolute.  Rows come back ranked by absolute self-time movement,
    largest first.
    """
    pd = PerfDiff(wall_tol=wall_tol, wall_abs_floor=wall_abs_floor)
    pd.wall_gated, pd.host_note = wall_gate(run_a, run_b)
    pa, pb = run_points(run_a), run_points(run_b)
    for key in sorted(pa.keys() ^ pb.keys()):
        which = "baseline" if key in pa else "current"
        pd.notes.append(f"{key}: only in {which} run")
    for key in sorted(pa.keys() & pb.keys()):
        pd.n_points += 1
        A = (pa[key].get("perf") or {}).get("ledger")
        B = (pb[key].get("perf") or {}).get("ledger")
        if A is None or B is None:
            which = ("either" if A is B else
                     "baseline" if A is None else "current")
            pd.notes.append(f"{key}: no ledger in {which} run; skipped")
            continue
        for label, kind, ra, rb, status, note in ledger_moves(
                A, B, pd.wall_gated, wall_tol, wall_abs_floor):
            pd.n_rows += 1
            if status == "ok":
                continue
            pd.rows.append(PerfRowDelta(
                point=key, row=label, kind=kind,
                baseline=None if ra is None else ra["self_s"],
                current=None if rb is None else rb["self_s"],
                base_count=None if ra is None else ra["count"],
                cur_count=None if rb is None else rb["count"],
                status=status, note=note,
            ))
    pd.rows.sort(key=lambda r: (-abs(r.delta), r.point, r.row))
    return pd
