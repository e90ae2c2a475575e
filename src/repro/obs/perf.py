"""The wall-time ledger and ``repro perf``.

``repro diff`` root-causes *semantic* divergence over decision
provenance; this module attributes *wall time* to the passes,
simulator phases, and functions responsible.  Two pieces:

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
* :func:`measure_point` — one observed compile + detail-and-locality
  simulate window producing the ledger, the deterministic machine
  metrics and the window's span recording; every ``repro bench``
  point is one such window.
* :func:`record_point` — ``repro perf``: the one-point bench snapshot
  of a coordinate (:func:`repro.obs.bench.bench_point` builds its
  point), with a collapsed-stack sample (:mod:`repro.obs.flame`
  renders it) as ``perf.stacks``.

Two runs' ledgers are compared by ``repro diff``
(:func:`repro.obs.compare.ledger_moves`): row *sets* and *counts* are
deterministic and gated exactly; self times are ranked, between
same-host runs only and only past a relative tolerance AND an absolute
floor, and never make two runs differ.

Ledger reconciliation rules (the falsifiability contract):

1. ``sum(row.self_s for all rows) == total_s`` to float rounding —
   the span-tree self-time decomposition is exact, and the residual
   row absorbs everything outside any span.
2. ``<unattributed>`` is never negative beyond rounding: the total is
   clocked from *before* the root span opens.
3. Anchor row counts equal the number of times the anchor span itself
   ran (descendant spans add time, never count), so pass-row counts
   are exactly the session's stage run counts — deterministic, and
   exact-match-gated by ``repro diff``.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import obs
from repro.obs import core as _obs_core

__all__ = [
    "UNATTRIBUTED",
    "build_ledger",
    "ledger_reconciles",
    "measure_point",
    "record_point",
]

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
                  collect_stacks: bool = False) -> Dict[str, Any]:
    """One observed compile + simulate window for one point.

    Opens a private collector, records the whole window under a
    ``perf.point`` root span, and returns the ledger, the simulation
    result (with the detail fields and the locality report), the
    addressing counters, the captured decision provenance, the
    window's ``collector`` (its spans are what ``repro perf --trace``
    exports) and the process's ``minor_faults`` and ``system_s`` (CPU
    seconds in the kernel) over the window, time that lands inside
    whichever rows touched the pages.  With ``collect_stacks`` it also
    returns collapsed ``stacks`` from a *separate* sampled simulation,
    kept outside the ledger window since the profiling hook would
    inflate it.  The global obs state is saved and restored.  As in
    :mod:`timeit`, the window runs after a full collection with the
    collector off, so no pause lands in a row.
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
        recording = obs.enable(reset=True)
        usage_start = resource.getrusage(resource.RUSAGE_SELF)
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
            res = simulate(spmd, machine, detail=True, locality=True)
        total_s = time.perf_counter() - t_start
        usage_end = resource.getrusage(resource.RUSAGE_SELF)
        addressing = {
            name.split(".", 1)[1]: value
            for name, value in sorted(recording.counters.items())
            if name.startswith("addropt.")
        }
        ledger = build_ledger(recording, total_s)
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
        "collector": recording,
        "minor_faults": usage_end.ru_minflt - usage_start.ru_minflt,
        "system_s": usage_end.ru_stime - usage_start.ru_stime,
    }
    if collect_stacks:
        from repro.obs.hotspot import DEFAULT_INTERVAL, HotspotProfiler

        with HotspotProfiler(DEFAULT_INTERVAL) as sampler:
            simulate(spmd, machine)
        out["stacks"] = sampler.report().collapsed()
    return out


def record_point(app: str, scheme, nprocs: int, *, n: int = 16,
                 time_steps: Optional[int] = None, scale: int = 16
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``repro perf``: measure one (app, scheme, procs) point.

    Returns ``(payload, window)``: the payload is the
    :func:`~repro.obs.bench.run_bench` snapshot of that one coordinate
    with the sampled stacks added as ``perf.stacks`` (``repro diff``
    gates it as it gates any bench snapshot), and ``window`` is the
    :func:`measure_point` output (``res`` for the profile table,
    ``collector`` for the Chrome trace).
    """
    from repro.codegen.spmd import scheme_short_name
    from repro.obs.bench import bench_point, snapshot
    from repro.pipeline.grid import make_grid, point_program
    from repro.pipeline.session import CompileSession

    short = scheme_short_name(scheme)
    point, = make_grid([app], [short], [nprocs], n=n,
                       time_steps=time_steps, scale=scale)
    entry, window = bench_point(CompileSession(), point,
                                point_program(point), collect_stacks=True)
    payload = snapshot([entry], apps=[app], schemes=[short],
                       procs=[nprocs], n=n, time_steps=time_steps,
                       scale=scale)
    return payload, window
