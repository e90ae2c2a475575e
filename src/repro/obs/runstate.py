"""Live run state: the read-side snapshot of a journaled run.

The journal (:mod:`repro.pipeline.journal`) is the one record of a
running grid: the driver's :class:`~repro.pipeline.journal.JournalWriter`
appends its ``start``/``done``/``wave`` records and rate-limited
``heartbeat`` liveness records (pid, rss).  This module makes the run
*observable while it runs*, from the journal file alone, so it can live
in a different process:

* :func:`load_status` runs in *any other process* (``repro status``,
  once or every second with ``--follow``).  It replays the journal into a :class:`RunStatus`:
  progress, per-scheme completion matrix, cache-hit rate, an EWMA of
  executed per-point latency and the ETA it implies, and a run-state
  classification::

      finished     the journal carries ``end: complete``
      interrupted  ``end: interrupted``, or no ``end`` and the driver
                   pid is dead (SIGKILL leaves exactly this shape)
      stale        no ``end``, pid unknown or alive, but the journal
                   has not moved for longer than ``stale_after`` (a
                   ``--jobs 1`` driver whose pid is alive and whose
                   point is in flight reads ``running`` instead)
      running      anything else — the driver is alive and writing

:func:`build_report` stitches status, the journal timeline, the
progress curves its ``start``/``done`` records imply and the
heartbeats' rss curve into the payload ``repro report`` renders.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.compare import point_key
from repro.pipeline.journal import (
    JournalState,
    journal_dir,
    read_records,
    resolve_run_id,
)

__all__ = [
    "DEFAULT_STALE_AFTER",
    "EWMA_ALPHA",
    "RunStatus",
    "build_report",
    "load_status",
    "pid_alive",
]

# A driver heartbeats every ~2 s by default; 15 s of silence with no
# end record and no dead pid means the writer is wedged, not just slow.
DEFAULT_STALE_AFTER = 15.0

# Smoothing for the per-point latency estimate feeding the ETA.
EWMA_ALPHA = 0.25


def pid_alive(pid: Optional[int]) -> Optional[bool]:
    """Is the pid running?  ``None`` when unknowable (no pid)."""
    if not pid:
        return None
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError, ValueError, OverflowError):
        # Exists but is not ours (or the probe itself failed): treat as
        # alive — staleness will catch a wedged writer.
        return True
    return True


# ---------------------------------------------------------------------------
# Read side: any process, against the journal alone.
# ---------------------------------------------------------------------------

@dataclass
class RunStatus:
    """Cross-process snapshot of one journaled run."""

    run_id: str
    path: str
    state: str                      # running | finished | interrupted | stale
    total: int
    finished: int
    ok: int
    errors: int
    degraded: int
    retried: int
    store_hits: int
    executed: int                   # finished minus store hits
    in_flight: List[Dict[str, Any]] = field(default_factory=list)
    waves: int = 0
    resumes: int = 0
    heartbeats: int = 0
    pid: Optional[int] = None
    pid_alive: Optional[bool] = None
    heartbeat_age: Optional[float] = None
    rss: Optional[int] = None
    jobs: int = 1
    wave: int = 0
    ewma_latency: Optional[float] = None
    eta: Optional[float] = None
    cache_hit_rate: Optional[float] = None
    scheme_matrix: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    bad_lines: int = 0
    torn_tail: bool = False
    ended: Optional[str] = None

    @property
    def progress(self) -> float:
        return self.finished / self.total if self.total else 1.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "path": self.path,
            "state": self.state,
            "total": self.total,
            "finished": self.finished,
            "progress": round(self.progress, 4),
            "ok": self.ok,
            "errors": self.errors,
            "degraded": self.degraded,
            "retried": self.retried,
            "store_hits": self.store_hits,
            "executed": self.executed,
            "in_flight": list(self.in_flight),
            "waves": self.waves,
            "resumes": self.resumes,
            "heartbeats": self.heartbeats,
            "pid": self.pid,
            "pid_alive": self.pid_alive,
            "heartbeat_age": self.heartbeat_age,
            "rss": self.rss,
            "jobs": self.jobs,
            "wave": self.wave,
            "ewma_latency": self.ewma_latency,
            "eta": self.eta,
            "cache_hit_rate": self.cache_hit_rate,
            "scheme_matrix": self.scheme_matrix,
            "bad_lines": self.bad_lines,
            "torn_tail": self.torn_tail,
            "ended": self.ended,
        }


def _classify(state: JournalState, now: float,
              stale_after: float) -> str:
    if state.ended == "complete":
        return "finished"
    if state.ended == "interrupted":
        return "interrupted"
    alive = pid_alive(state.pid)
    if alive is False:
        # No end record and the driver pid is gone: SIGKILL / OOM /
        # driver.kill all leave exactly this shape.
        return "interrupted"
    hb = state.last_heartbeat
    freshness: Optional[float] = None
    if hb is not None and isinstance(hb.get("t"), (int, float)):
        freshness = float(hb["t"])
    else:
        try:
            freshness = state.path.stat().st_mtime
        except OSError:
            pass
    if freshness is not None and now - freshness > stale_after:
        # A serial driver writes nothing while its one point runs, so a
        # long point is not silence.  A parallel driver heartbeats while
        # it waits: when its heartbeats stop, it is wedged.
        if state.jobs <= 1 and alive and state.in_flight:
            return "running"
        return "stale"
    return "running"


def status_from_state(state: JournalState, *,
                      now: Optional[float] = None,
                      stale_after: float = DEFAULT_STALE_AFTER
                      ) -> RunStatus:
    """Derive a :class:`RunStatus` from a parsed journal."""
    if now is None:
        now = time.time()

    header = state.header or {}
    total = int(header.get("total") or 0)
    try:
        points = state.points()
    except Exception:
        points = []
    if not total:
        total = len(points)

    # Labels for in-flight indices come from the spec, so a status
    # probe never needs the (possibly dead) driver's memory.
    labels: Dict[int, str] = {i: p.label() for i, p in enumerate(points)}
    in_flight = [{"i": i, "label": labels.get(i, f"point {i}")}
                 for i in state.in_flight]

    ok = errors = degraded = retried = store_hits = 0
    runs_total = hits_total = 0
    ewma: Optional[float] = None
    matrix: Dict[str, Dict[str, List[int]]] = {}
    for p in points:
        cell = matrix.setdefault(p.app, {}).setdefault(p.scheme, [0, 0])
        cell[1] += 1
    for i, d in state.finished.items():
        if not isinstance(d, dict):
            continue
        if d.get("ok"):
            ok += 1
        else:
            errors += 1
        if d.get("degraded"):
            degraded += 1
        if (d.get("attempts") or 1) > 1:
            retried += 1
        if d.get("store_hit"):
            store_hits += 1
        else:
            elapsed = d.get("elapsed")
            if isinstance(elapsed, (int, float)) and elapsed >= 0:
                ewma = (elapsed if ewma is None
                        else EWMA_ALPHA * elapsed + (1 - EWMA_ALPHA) * ewma)
        for v in (d.get("pass_runs") or {}).values():
            runs_total += int(v)
        for v in (d.get("pass_hits") or {}).values():
            hits_total += int(v)
        pd = d.get("point") or {}
        app, scheme = pd.get("app"), pd.get("scheme")
        if app in matrix and scheme in matrix[app]:
            matrix[app][scheme][0] += 1

    finished = len(state.finished)
    hb = state.last_heartbeat or {}
    jobs = max(state.jobs, 1)
    hb_age = None
    if isinstance(hb.get("t"), (int, float)):
        hb_age = max(round(now - float(hb["t"]), 3), 0.0)

    remaining = max(total - finished, 0)
    eta = None
    if ewma is not None and remaining:
        eta = round(remaining * ewma / jobs, 3)
    hit_rate = None
    if runs_total + hits_total:
        hit_rate = hits_total / (runs_total + hits_total)

    return RunStatus(
        run_id=state.run_id,
        path=str(state.path),
        state=_classify(state, now, stale_after),
        total=total,
        finished=finished,
        ok=ok,
        errors=errors,
        degraded=degraded,
        retried=retried,
        store_hits=store_hits,
        executed=finished - store_hits,
        in_flight=in_flight,
        waves=state.waves,
        resumes=state.resumes,
        heartbeats=state.heartbeats,
        pid=state.pid,
        pid_alive=pid_alive(state.pid),
        heartbeat_age=hb_age,
        rss=hb.get("rss"),
        jobs=jobs,
        wave=state.wave,
        ewma_latency=round(ewma, 4) if ewma is not None else None,
        eta=eta,
        cache_hit_rate=(round(hit_rate, 4)
                        if hit_rate is not None else None),
        scheme_matrix=matrix,
        bad_lines=state.bad_lines,
        torn_tail=state.torn_tail,
        ended=state.ended,
    )


def load_status(store_root: os.PathLike, token: str = "latest", *,
                stale_after: float = DEFAULT_STALE_AFTER) -> RunStatus:
    """Snapshot a run by id (or ``latest``) from its journal alone.

    Raises :class:`~repro.errors.JournalError` when no such run exists
    or its journal is unreadable — callers map that to exit code 2.
    """
    jdir = journal_dir(store_root)
    run_id = resolve_run_id(jdir, token)
    state = JournalState.load(jdir / f"{run_id}.jsonl")
    return status_from_state(state, stale_after=stale_after)


# ---------------------------------------------------------------------------
# Report payload: status + timeline + progress curves in one dict.
# ---------------------------------------------------------------------------

def build_report(store_root: os.PathLike, token: str = "latest", *,
                 stale_after: float = DEFAULT_STALE_AFTER
                 ) -> Dict[str, Any]:
    """Everything ``repro report`` renders, from the journal alone.

    The payload is pure data (JSON-serializable) so ``--json`` and
    ``--html`` are two renderings of the same artifact.
    """
    jdir = journal_dir(store_root)
    run_id = resolve_run_id(jdir, token)
    jpath = jdir / f"{run_id}.jsonl"
    state = JournalState.load(jpath)
    status = status_from_state(state, stale_after=stale_after)
    records, _, _ = read_records(jpath)

    # Timeline and curves: every timestamped lifecycle record, relative
    # to the first timestamp seen so the report is origin-independent.
    # The progress counts are cumulative over the start/done records;
    # the rss curve is the heartbeats'.
    stamped = [r for r in records
               if isinstance(r.get("t"), (int, float))
               and r.get("type") in ("wave", "start", "done", "heartbeat")]
    t0 = min((float(r["t"]) for r in stamped), default=0.0)
    timeline: List[Dict[str, Any]] = []
    curves: Dict[str, List[List[float]]] = {}
    counts = dict.fromkeys(("finished", "dispatched", "errors",
                            "store_hits"), 0)
    done = set()
    for r in stamped:
        rel = round(float(r["t"]) - t0, 3)
        entry: Dict[str, Any] = {"t": rel, "type": r["type"]}
        if r["type"] == "wave":
            entry["wave"] = r.get("wave")
            entry["pending"] = r.get("pending")
        elif r["type"] == "start":
            entry["i"] = r.get("i")
            entry["label"] = r.get("label")
            counts["dispatched"] += 1
        elif r["type"] == "done":
            entry["i"] = r.get("i")
            entry["ok"] = r.get("ok")
            done.add(r.get("i"))
            counts["finished"] = len(done)
            counts["errors"] += not r.get("ok")
            result = r.get("result")
            counts["store_hits"] += bool(
                isinstance(result, dict) and result.get("store_hit"))
        else:  # heartbeat
            entry["finished"] = len(done)
            entry["rss"] = r.get("rss")
            if isinstance(r.get("rss"), (int, float)):
                curves.setdefault("rss_mb", []).append(
                    [rel, round(float(r["rss"]) / 1e6, 2)])
        timeline.append(entry)
        if r["type"] in ("start", "done"):
            for key, value in counts.items():
                curves.setdefault(key, []).append([rel, float(value)])

    # Per-point rows plus degradation / failure / provenance rollups.
    rows: List[Dict[str, Any]] = []
    degraded: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    decisions: Dict[str, int] = {}
    for i, d in sorted(state.finished.items()):
        if not isinstance(d, dict):
            continue
        label = point_key(d)
        rows.append({
            "i": i,
            "label": label,
            "ok": bool(d.get("ok")),
            "elapsed": d.get("elapsed"),
            "total_time": d.get("total_time"),
            "store_hit": bool(d.get("store_hit")),
            "attempts": d.get("attempts") or 1,
            "degraded": bool(d.get("degraded")),
        })
        if d.get("degraded"):
            degraded.append({"i": i, "label": label,
                             "reason": d.get("degrade_reason") or ""})
        if not d.get("ok"):
            failures.append({"i": i, "label": label,
                             "error": d.get("error") or ""})
        for rec in d.get("provenance") or []:
            if isinstance(rec, dict):
                key = f"{rec.get('site', '?')} → {rec.get('chosen', '?')}"
                decisions[key] = decisions.get(key, 0) + 1

    return {
        "schema": 1,
        "run_id": run_id,
        "status": status.as_dict(),
        "header": {k: v for k, v in (state.header or {}).items()
                   if k != "spec"},
        "timeline": timeline,
        "points": rows,
        "degraded": degraded,
        "failures": failures,
        "decisions": dict(sorted(decisions.items(),
                                 key=lambda kv: (-kv[1], kv[0]))),
        "series": {"samples": state.heartbeats, "curves": curves},
    }

