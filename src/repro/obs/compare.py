"""Reading and judging runs: the one place two runs are compared.

Every command that puts two runs side by side — ``bench --compare``,
``diff`` and ``perf diff`` — goes through this module, so they agree
on what a run file is, which points are the same point, when two
simulated values are equal and when a wall-clock move is noise:

* :func:`read_run` loads a bench snapshot (following ``BENCH_latest``
  pointer files), a ``perf record`` payload or a ``batch --json``
  output;
* :func:`run_points` keys each point by :func:`point_key`, reading the
  coordinate from the point itself or from a ``batch --json`` row's
  nested ``point``;
* :func:`point_metrics` flattens a point to ``sim.*`` and ``wall.*``
  leaves.  The simulator is deterministic, so simulated leaves — lists
  included — are compared with plain ``==``: any drift is a change;
* :func:`drift` is the wall-clock noise rule: a move counts only past
  the relative tolerance *and* the absolute floor, and
  :func:`wall_gate` allows wall comparisons only between runs whose
  :func:`host_fingerprint` is equal;
* :func:`ledger_moves` aligns and judges two points' wall-time ledgers
  (:func:`repro.obs.perf.build_ledger`) row by row.

The module imports nothing from ``repro``: :mod:`repro.obs.provenance`
is loaded by every ``import repro`` and must not pull in the bench
harness.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "WALL_ABS_FLOOR",
    "WALL_TOL",
    "drift",
    "flatten",
    "host_fingerprint",
    "ledger_moves",
    "point_key",
    "point_metrics",
    "read_run",
    "run_points",
    "wall_gate",
]

WALL_TOL = 0.30
# Absolute slack under the relative wall gate: scheduler jitter on a
# sub-10ms measurement easily exceeds 30% relative, so a move must
# also be at least this many seconds to count.
WALL_ABS_FLOOR = 0.010


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
    :func:`wall_gate` names exactly which ones differ."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "node": platform.node(),
        "cpu": _cpu_model(),
        "cores": os.cpu_count() or 0,
    }


def read_run(path: Any) -> Dict[str, Any]:
    """Load a run file: a bench snapshot or ``perf record`` payload
    (``points``) or a ``batch --json`` output (``results``).  Pointer
    files (``{"pointer": ...}``, as ``BENCH_latest.json``) are
    followed; a relative pointer resolves against the pointer file's
    directory.  Raises ValueError for anything else."""
    path = Path(path)
    for _ in range(4):  # pointer chains are short; bound anyway
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "pointer" not in data:
            break
        candidate = Path(data["pointer"])
        if not candidate.is_absolute() and not candidate.exists():
            candidate = path.parent / candidate
        path = candidate
    else:
        raise ValueError(f"pointer chain too deep starting at {path}")
    if isinstance(data, dict) and ("points" in data or "results" in data):
        return data
    raise ValueError(
        f"{path}: not a bench snapshot, perf record or batch --json "
        "output (expected a 'points' or 'results' key)")


def point_key(point: Mapping[str, Any]) -> str:
    """``app/scheme/P<nprocs>`` of one point: a bench or ``perf
    record`` point carries the coordinate at top level, a ``batch
    --json`` row under ``point``."""
    coord = point.get("point")
    if not isinstance(coord, Mapping):
        coord = point
    return (f"{coord.get('app', '?')}/{coord.get('scheme', '?')}"
            f"/P{coord.get('nprocs', '?')}")


def run_points(run: Mapping[str, Any]) -> Dict[str, Mapping[str, Any]]:
    """``{point_key: point}`` of either run shape, in file order."""
    rows = run.get("points") or run.get("results") or []
    return {point_key(p): p for p in rows if isinstance(p, Mapping)}


def flatten(obj: Mapping[str, Any], prefix: str) -> Dict[str, Any]:
    """Dotted-name leaves of nested dicts; every non-dict value
    (numbers, strings, lists) is a leaf."""
    flat: Dict[str, Any] = {}
    for key, value in obj.items():
        name = f"{prefix}.{key}"
        if isinstance(value, Mapping):
            flat.update(flatten(value, name))
        else:
            flat[name] = value
    return flat


def point_metrics(point: Mapping[str, Any]) -> Dict[str, Any]:
    """Flat ``sim.*`` and ``wall.*`` leaves of one point.  Bench and
    ``perf record`` points keep them under ``sim``/``wall``; a ``batch
    --json`` row has the simulated results at top level and one wall
    number, ``elapsed``."""
    if "sim" in point:
        sim = point.get("sim") or {}
        wall = point.get("wall") or {}
    else:
        sim = {k: point[k] for k in ("total_time", "n_accesses")
               if k in point}
        if point.get("miss_breakdown"):
            sim["misses"] = point["miss_breakdown"]
        if point.get("locality"):
            sim["locality"] = point["locality"]
        wall = {"elapsed": point["elapsed"]} if "elapsed" in point else {}
    return {**flatten(sim, "sim"), **flatten(wall, "wall")}


def drift(base: float, cur: float, tol: float = WALL_TOL,
          floor: float = WALL_ABS_FLOOR) -> int:
    """The noise rule for wall-clock numbers: ``+1`` when ``cur`` grew
    past ``tol`` relative AND ``floor`` absolute, ``-1`` when it shrank
    past both, else ``0``."""
    if cur > base * (1.0 + tol) and cur - base > floor:
        return 1
    if cur < base * (1.0 - tol) and base - cur > floor:
        return -1
    return 0


def wall_gate(run_a: Mapping[str, Any],
              run_b: Mapping[str, Any]) -> Tuple[bool, str]:
    """``(gated, why_not)``: wall-clock numbers compare only between
    runs whose host fingerprints are equal; ``why_not`` lists the
    differing fields as ``field: x vs y``."""
    a, b = run_a.get("host") or {}, run_b.get("host") or {}
    why_not = "; ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}"
                        for k in sorted(set(a) | set(b))
                        if a.get(k) != b.get(k))
    return run_a.get("host") == run_b.get("host"), why_not


def ledger_moves(a: Mapping[str, Any], b: Mapping[str, Any],
                 wall_gated: bool, tol: float = WALL_TOL,
                 floor: float = WALL_ABS_FLOOR
                 ) -> Iterator[Tuple[str, str, Optional[Mapping],
                                     Optional[Mapping], str, str]]:
    """Align two ledgers by ``(kind, name)`` and judge every row:
    yields ``(label, kind, row_a, row_b, status, note)`` in
    ``(kind, name)`` order, a row missing on one side being ``None``.

    The row set and anchor counts are deterministic, so a row that
    appeared or vanished, or whose count drifted, is ``changed`` on
    any host.  Self time is wall-clock: ``regressed``/``improved`` by
    :func:`drift`, and only when ``wall_gated``; every other row is
    ``ok``.  The label is ``kind/name``, or the bare name for the
    residual row.
    """
    rows_a = {(r["kind"], r["name"]): r for r in a["rows"]}
    rows_b = {(r["kind"], r["name"]): r for r in b["rows"]}
    for kind, name in sorted(set(rows_a) | set(rows_b)):
        label = name if kind == "residual" else f"{kind}/{name}"
        ra, rb = rows_a.get((kind, name)), rows_b.get((kind, name))
        status, note = "ok", ""
        if ra is None or rb is None:
            status, note = "changed", "ledger row appeared/disappeared"
        elif kind != "residual" and ra["count"] != rb["count"]:
            status = "changed"
            note = (f"ledger count drifted {ra['count']} → {rb['count']} "
                    "(exact-match gate)")
        elif wall_gated:
            move = drift(float(ra["self_s"]), float(rb["self_s"]),
                         tol, floor)
            if move > 0:
                status = "regressed"
                note = f"ledger self time over +{tol:.0%} threshold"
            elif move < 0:
                status = "improved"
        yield label, kind, ra, rb, status, note
