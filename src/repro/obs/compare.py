"""Reading and judging runs: the one place two runs are compared.

``repro diff A B`` is the one judge of two runs — bench snapshots,
``repro perf`` payloads or ``batch --json`` outputs — and this module
is all of it:

* :func:`read_run` loads a run file;
* :func:`run_points` keys each point by :func:`point_key`, reading the
  coordinate from the point itself or from a ``batch --json`` row's
  nested ``point``;
* :func:`point_metrics` flattens a point to ``sim.*`` and ``wall.*``
  leaves;
* :func:`drift` is the wall-clock noise rule: a move counts only past
  the relative tolerance *and* the absolute floor, and
  :func:`wall_gate` allows wall comparisons only between runs whose
  :func:`host_fingerprint` is equal;
* :func:`ledger_moves` aligns and judges two points' wall-time ledgers
  (:func:`repro.obs.perf.build_ledger`) row by row;
* :func:`diff_runs` is the judge.  The simulator is deterministic, so
  everything it gates is compared exactly: schema and problem size,
  the point set, every ``sim.*`` leaf (lists included, and a leaf
  present in one run only is a change) and the ledgers' row sets and
  counts.  Each diverging point is attributed to its first diverging
  compiler decision.  Wall-clock moves — ledger self times, a ``batch
  --json`` row's ``elapsed`` — are ranked by size between same-host
  runs and never make two runs differ.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.provenance import record_identity

__all__ = [
    "DIVERGED",
    "WALL_ABS_FLOOR",
    "WALL_TOL",
    "DiffRow",
    "RunDiff",
    "diff_runs",
    "drift",
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

# Row statuses that make two runs differ (exit 1): a deterministic
# leaf or ledger row that changed, a point in one run only, or runs of
# another schema or problem size.  Wall-clock moves
# (``regressed``/``improved``) and the attribution of a diverging point
# (``culprit``/``unattributed``) are reported, never gated.
DIVERGED = ("changed", "missing", "incomparable")

# The config keys that fix a run's problem size.
_SIZE_KEYS = ("n", "time_steps", "scale")


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
    """Load a run file: a bench snapshot or ``repro perf`` payload
    (``points``) or a ``batch --json`` output (``results``).  Raises
    ValueError for anything else."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and ("points" in data or "results" in data):
        return data
    raise ValueError(
        f"{path}: not a bench snapshot, perf payload or batch --json "
        "output (expected a 'points' or 'results' key)")


def point_key(point: Mapping[str, Any]) -> str:
    """``app/scheme/P<nprocs>`` of one point: a bench or ``repro
    perf`` point carries the coordinate at top level, a ``batch
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


def _flatten(obj: Mapping[str, Any], prefix: str) -> Dict[str, Any]:
    """Dotted-name leaves of nested dicts; every non-dict value
    (numbers, strings, lists) is a leaf."""
    flat: Dict[str, Any] = {}
    for key, value in obj.items():
        name = f"{prefix}.{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, name))
        else:
            flat[name] = value
    return flat


def point_metrics(point: Mapping[str, Any]) -> Dict[str, Any]:
    """Flat ``sim.*`` and ``wall.*`` leaves of one point.  Bench and
    ``repro perf`` points keep them under ``sim``/``wall``; a ``batch
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
    return {**_flatten(sim, "sim"), **_flatten(wall, "wall")}


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


@dataclass
class DiffRow:
    """One finding of :func:`diff_runs`: ``metric`` of ``point`` (a
    point key, or ``*`` for the run as a whole) reads ``a`` in run A
    and ``b`` in run B.

    ``status`` is one of :data:`DIVERGED`; ``regressed``/``improved``
    for a same-host wall-clock move past :func:`drift`; or, on the row
    closing each diverging point, ``culprit`` (``a``/``b`` are the
    first decision records that differ) or ``unattributed`` (``note``
    says why no decision is to blame)."""

    point: str
    metric: str
    a: Any
    b: Any
    status: str
    note: str = ""


@dataclass
class RunDiff:
    """The verdict of :func:`diff_runs`.  ``rows`` come in report
    order: run-level and missing-point rows, then each diverging
    point's changed rows closed by its attribution row, then the
    wall-clock moves, largest ``|b - a|`` first."""

    rows: List[DiffRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    n_compared: int = 0
    wall_gated: bool = True
    host_note: str = ""

    @property
    def diverged(self) -> bool:
        return any(r.status in DIVERGED for r in self.rows)

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "diverged": self.diverged}


def ledger_moves(key: str, a: Mapping[str, Any], b: Mapping[str, Any],
                 wall_gated: bool) -> Iterator[DiffRow]:
    """Align two ledgers of point ``key`` by ``(kind, name)`` and yield
    a row for every ledger row that moved, in ``(kind, name)`` order.

    The row set and anchor counts are deterministic, so a row that
    appeared or vanished (metric ``perf.<label>``), or whose count
    drifted (``perf.<label>.count``), is ``changed`` on any host.
    Self time (``perf.<label>.self_s``) is wall-clock: ``regressed`` or
    ``improved`` by :func:`drift`, and only when ``wall_gated``.  The
    label is ``kind/name``, or the bare name for the residual row.
    """
    rows_a = {(r["kind"], r["name"]): r for r in a["rows"]}
    rows_b = {(r["kind"], r["name"]): r for r in b["rows"]}
    for kind, name in sorted(set(rows_a) | set(rows_b)):
        label = name if kind == "residual" else f"{kind}/{name}"
        ra, rb = rows_a.get((kind, name)), rows_b.get((kind, name))
        if ra is None or rb is None:
            yield DiffRow(key, f"perf.{label}",
                          "absent" if ra is None else "present",
                          "absent" if rb is None else "present",
                          "changed", "ledger row appeared/disappeared")
        elif kind != "residual" and ra["count"] != rb["count"]:
            yield DiffRow(key, f"perf.{label}.count", ra["count"],
                          rb["count"], "changed", "ledger count drifted")
        elif wall_gated:
            move = drift(float(ra["self_s"]), float(rb["self_s"]))
            if move:
                yield DiffRow(key, f"perf.{label}.self_s", ra["self_s"],
                              rb["self_s"],
                              "regressed" if move > 0 else "improved")


def _attribute(key: str, pa: Mapping[str, Any],
               pb: Mapping[str, Any]) -> DiffRow:
    """The row closing a diverging point: its first diverging decision
    record (span ids ignored), or why there is none to blame."""
    fa, fb = pa.get("machine_fp"), pb.get("machine_fp")
    if fa and fb and fa != fb:
        # Different simulated-machine geometry: the runs measured
        # different machines, so no compiler decision is to blame.
        return DiffRow(
            key, "decision", None, None, "unattributed",
            f"machine fingerprint differs ({fa[:12]}.. vs {fb[:12]}..); "
            "divergence attributed to a machine-config change, not a "
            "compiler decision")
    la = pa.get("provenance") or []
    lb = pb.get("provenance") or []
    if not (la and lb):
        which = ("either run" if not (la or lb)
                 else f"run {'A' if not la else 'B'}")
        return DiffRow(key, "decision", None, None, "unattributed",
                       f"no provenance recorded in {which}; cannot "
                       "attribute")
    for i in range(max(len(la), len(lb))):
        ra = la[i] if i < len(la) else None
        rb = lb[i] if i < len(lb) else None
        if ra is None or rb is None or \
                record_identity(ra) != record_identity(rb):
            return DiffRow(key, f"decision #{i}", ra, rb, "culprit",
                           "first diverging decision")
    return DiffRow(key, "decision", None, None, "unattributed",
                   "decision logs identical; the change is not "
                   "attributable to a compiler decision")


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _size(run: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in (run.get("config") or {}).items()
            if k in _SIZE_KEYS}


def _ledger(point: Mapping[str, Any]) -> Optional[Mapping[str, Any]]:
    return (point.get("perf") or {}).get("ledger")


def diff_runs(run_a: Mapping[str, Any],
              run_b: Mapping[str, Any]) -> RunDiff:
    """Judge run B against run A (any run shapes, aligned by
    :func:`point_key`); see the module docstring for the rules."""
    diff = RunDiff()
    diff.wall_gated, diff.host_note = wall_gate(run_a, run_b)
    for metric, a, b, note in (
            ("schema", run_a.get("schema"), run_b.get("schema"),
             "run schema differs"),
            ("config", _size(run_a), _size(run_b),
             "runs measured at different problem sizes")):
        if a != b:
            diff.rows.append(DiffRow("*", metric, a, b, "incomparable",
                                     note))
            return diff
    points_a, points_b = run_points(run_a), run_points(run_b)
    for key in sorted(points_a.keys() ^ points_b.keys()):
        in_a = key in points_a
        diff.rows.append(DiffRow(
            key, "*", "present" if in_a else "absent",
            "absent" if in_a else "present", "missing",
            f"point in run {'A' if in_a else 'B'} only"))
    moves: List[DiffRow] = []
    for key in sorted(points_a.keys() & points_b.keys()):
        diff.n_compared += 1
        pa, pb = points_a[key], points_b[key]
        ma, mb = point_metrics(pa), point_metrics(pb)
        changed = [
            DiffRow(key, m, ma.get(m, "absent"), mb.get(m, "absent"),
                    "changed",
                    "" if m in ma and m in mb else "leaf in one run only")
            for m in sorted(set(ma) | set(mb))
            if m.startswith("sim.")
            and (m not in ma or m not in mb or ma[m] != mb[m])]
        if diff.wall_gated:
            for m in sorted(set(ma) & set(mb)):
                if m.startswith("wall.") and _is_number(ma[m]) \
                        and _is_number(mb[m]):
                    move = drift(float(ma[m]), float(mb[m]))
                    if move:
                        moves.append(DiffRow(
                            key, m, ma[m], mb[m],
                            "regressed" if move > 0 else "improved"))
        la, lb = _ledger(pa), _ledger(pb)
        if la and lb:
            for row in ledger_moves(key, la, lb, diff.wall_gated):
                (changed if row.status == "changed" else moves).append(row)
        elif la or lb:
            diff.notes.append(f"{key}: no ledger in run "
                              f"{'A' if not la else 'B'}; not compared")
        if changed:
            diff.rows.extend(changed)
            diff.rows.append(_attribute(key, pa, pb))
    moves.sort(key=lambda r: (-abs(r.b - r.a), r.point, r.metric))
    diff.rows.extend(moves)
    return diff
