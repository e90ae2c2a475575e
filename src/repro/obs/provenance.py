"""Decision provenance: *why* the compiler chose what it chose.

The paper's end-to-end results rest on a chain of heuristic decisions —
unimodular permutation selection (Section 3), the greedy decomposition
ladder and rank maximization (Section 5), BLOCK/CYCLIC folding, the
strip-mine + permute layout derivation (Section 4), and the div/mod
address optimizations (Section 4.4).  The tracing layer records *that*
those phases ran; this module records the decisions themselves so that
``python -m repro explain`` can render the decision tree for one
compilation and ``python -m repro diff`` can attribute a performance
delta between two runs to the first decision that diverged.

Model
-----
Every decision site calls :func:`record`, which appends a
:class:`DecisionRecord` to the innermost active *capture*.  When no
capture is active (plain library use, the simulator hot path, the
disabled-observability benchmark) ``record`` is a single truthiness
test — provenance never needs an enable flag and never perturbs
fingerprints or cache keys, because decisions are a pure function of
the same inputs the fingerprint already covers.

``CompileSession`` opens a capture around every stage it runs and
memoizes the captured records with the stage's artifact, so a memo
hit replays the exact records of the original run and a warm session
reproduces the full log bit-identically.

Reason codes
------------
``reason`` strings are drawn from a small per-site vocabulary (see
``REASON_CATALOG``); `repro diff` compares full records, so reasons are
kept stable and machine-comparable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs import core as _core
from repro.obs.compare import point_metrics, run_points

__all__ = [
    "DecisionRecord",
    "ProvenanceLog",
    "capture",
    "record",
    "active",
    "collect_point",
    "diff_runs",
    "RunDiff",
    "PointDiff",
    "MetricDelta",
    "STAGE_ORDER",
    "REASON_CATALOG",
]

# Pipeline-ordered stages a record can belong to; explain renders groups
# in this order, diff uses it to break ties between diverging records.
STAGE_ORDER = ("unimodular", "decomposition", "folding", "layout", "addropt")

# site -> {reason code: meaning}.  Documentation + the vocabulary the
# diff attribution treats as stable.
REASON_CATALOG: Dict[str, Dict[str, str]] = {
    "unimodular.restructure": {
        "imperfect nest": "transform only applies to perfect nests",
        "already parallel": "outermost loop carries no dependence",
        "no communication-free direction": "nullspace test failed (Thm 3.1)",
        "no unimodular completion": "partial transform has no unimodular completion",
        "no legal tail order": "every inner order violates a dependence",
        "transform not unimodular": "completed matrix has |det| != 1",
        "transform not a permutation": "only permutation transforms are emitted",
        "identity permutation": "best legal order is the original order",
        "permutation breaks triangular bounds": "bounds not rectangular under permutation",
        "legal outermost-parallel permutation": "permutation moves a parallel loop outermost",
    },
    "decomp.ladder": {
        "first rung preserving parallelism": "lowest ladder rung with min entry rank >= 1",
        "no rung preserves parallelism": "nest excluded; decomposed as separate region",
    },
    "decomp.solver": {
        "max (gain, locality, dim-preference)": "greedy row choice maximizing rank gain",
        "communication-free stays 1-D": "no boundary communication; extra dims add nothing",
        "no candidate row": "no independent rowspace row adds parallelism",
        "max_dims reached": "decomposition rank capped at max_dims (2)",
    },
    "decomp.folding": {
        "triangular bounds couple mapped levels": "CYCLIC balances triangular iteration spaces",
        "pipelined nest prefers block-cyclic": "BLOCK_CYCLIC trades balance against pipeline startup",
        "default block": "BLOCK minimizes communication for rectangular spaces",
    },
    "datatrans.layout": {
        "undistributed": "array has no decomposition; layout untouched",
        "replicated": "replicated array is local everywhere; layout untouched",
        "single processor along mapped dims": "grid extent 1; nothing to localize",
        "comp-decomp only": "scheme leaves data in original order (owner info only)",
        "local optimization": "highest dim BLOCK already contiguous per processor",
        "strip-mine + permute": "processor dims moved rightmost to localize (Sec 4.2)",
    },
    "datatrans.legality": {
        "legality rejection": "derived transform invalid; fell back to identity",
    },
    "addropt.plan": {
        "strategy chosen by lowest per-iteration cost": "see detail field per record",
    },
}


def _plain(value: Any) -> Any:
    """Coerce attribute values to deterministic JSON-safe plain data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_plain(v) for v in items]
    return repr(value)


@dataclass
class DecisionRecord:
    """One compiler decision: what was chosen, out of what, and why."""

    site: str                      # e.g. "decomp.ladder"
    stage: str                     # one of STAGE_ORDER
    subject: str                   # nest / array / loop var the decision is about
    chosen: str                    # the selected option
    alternatives: List[str] = field(default_factory=list)
    reason: str = ""               # reason code (REASON_CATALOG) or detail string
    inputs: Dict[str, Any] = field(default_factory=dict)
    span_id: Optional[int] = None  # innermost open obs span, if tracing is on

    def as_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "stage": self.stage,
            "subject": self.subject,
            "chosen": self.chosen,
            "alternatives": list(self.alternatives),
            "reason": self.reason,
            "inputs": dict(self.inputs),
            "span_id": self.span_id,
        }


def record_identity(rec: Dict[str, Any]) -> str:
    """Canonical comparison key for a record dict: everything except the
    span id (which depends on unrelated tracing state)."""
    stripped = {k: v for k, v in rec.items() if k != "span_id"}
    return json.dumps(stripped, sort_keys=True, default=repr)


class ProvenanceLog:
    """Ordered per-compilation list of :class:`DecisionRecord`."""

    __slots__ = ("records",)

    def __init__(self, records: Optional[List[DecisionRecord]] = None):
        self.records: List[DecisionRecord] = list(records or [])

    def append(self, rec: DecisionRecord) -> None:
        self.records.append(rec)

    def extend(self, recs: Sequence[DecisionRecord]) -> None:
        self.records.extend(recs)

    def copy(self) -> "ProvenanceLog":
        return ProvenanceLog(list(self.records))

    def clear(self) -> None:
        self.records.clear()

    def stages(self) -> List[str]:
        seen: List[str] = []
        for r in self.records:
            if r.stage not in seen:
                seen.append(r.stage)
        return seen

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [r.as_dict() for r in self.records]

    def to_json(self, **meta: Any) -> str:
        payload = dict(meta)
        payload["n_decisions"] = len(self.records)
        payload["stages"] = self.stages()
        payload["decisions"] = self.as_dicts()
        return json.dumps(payload, indent=2, default=repr)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self.records)


# ---------------------------------------------------------------------------
# Capture stack

_capture_stack: List[List[DecisionRecord]] = []


def active() -> bool:
    """True while some capture is open (recording has a consumer)."""
    return bool(_capture_stack)


@contextmanager
def capture():
    """Collect decisions recorded in the dynamic extent into a list.

    Captures nest; records go to the innermost one only (a stage's
    capture shadows any outer one, mirroring how memoized artifacts
    carry their own records).
    """
    records: List[DecisionRecord] = []
    _capture_stack.append(records)
    try:
        yield records
    finally:
        _capture_stack.pop()


def record(site: str, stage: str, subject: Any, chosen: Any,
           alternatives: Sequence[Any] = (), reason: str = "",
           **inputs: Any) -> Optional[DecisionRecord]:
    """Append a decision to the innermost capture; no-op (one truthiness
    test) when nothing is capturing."""
    if not _capture_stack:
        return None
    rec = DecisionRecord(
        site=site,
        stage=stage,
        subject=str(subject),
        chosen=str(chosen),
        alternatives=[str(a) for a in alternatives],
        reason=reason,
        inputs={str(k): _plain(v) for k, v in inputs.items()},
        span_id=_core.current_span_id(),
    )
    _capture_stack[-1].append(rec)
    return rec


# ---------------------------------------------------------------------------
# High-level collection

def collect_point(session, prog, scheme, nprocs: int):
    """Compile one grid point and gather its full decision log: the
    compile stages' decisions from the session plus the addropt
    decisions made while emitting optimized code.  Returns
    ``(spmd, log)``."""
    from repro.codegen.emit_optimized import emit_optimized_program

    spmd = session.compile(prog, scheme, nprocs)
    log = session.last_provenance.copy()
    with capture() as recs:
        emit_optimized_program(spmd)
    log.extend(recs)
    return spmd, log


# ---------------------------------------------------------------------------
# Run loading + root-cause diffing

@dataclass
class MetricDelta:
    """One metric that differs between two runs.  Values are numbers
    or, for list-valued metrics (locality heatmaps, wall samples),
    lists — which have no delta."""

    metric: str
    a: Any
    b: Any

    @property
    def delta(self) -> Optional[float]:
        try:
            return self.b - self.a
        except TypeError:  # a list-valued metric
            return None

    @property
    def rel(self) -> Optional[float]:
        if self.delta is None or self.a == 0:
            return None
        return self.delta / abs(self.a)


@dataclass
class PointDiff:
    """One grid point's differences between two runs."""

    key: str
    deltas: List[MetricDelta] = field(default_factory=list)
    culprit: Optional[Dict[str, Any]] = None       # diverging record in run B
    culprit_was: Optional[Dict[str, Any]] = None   # its counterpart in run A
    culprit_index: Optional[int] = None
    note: str = ""

    @property
    def significant(self) -> bool:
        """Wall time is noisy; a point only *fails* a diff when a
        deterministic (non-wall) metric moved."""
        return any(not d.metric.startswith("wall") for d in self.deltas)

    def score(self) -> float:
        best = 0.0
        for d in self.deltas:
            if d.metric.startswith("wall"):
                continue
            r = d.rel
            best = max(best, abs(r) if r is not None else float("inf"))
        return best


@dataclass
class RunDiff:
    points: List[PointDiff] = field(default_factory=list)
    missing_in_b: List[str] = field(default_factory=list)
    missing_in_a: List[str] = field(default_factory=list)
    n_compared: int = 0

    @property
    def identical(self) -> bool:
        return not (self.points or self.missing_in_a or self.missing_in_b)

    @property
    def significant(self) -> bool:
        return bool(self.missing_in_a or self.missing_in_b
                    or any(p.significant for p in self.points))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_compared": self.n_compared,
            "identical": self.identical,
            "significant": self.significant,
            "missing_in_a": list(self.missing_in_a),
            "missing_in_b": list(self.missing_in_b),
            "points": [
                {
                    "key": p.key,
                    "deltas": [
                        {"metric": d.metric, "a": d.a, "b": d.b,
                         "delta": d.delta, "rel": d.rel}
                        for d in p.deltas
                    ],
                    "culprit": p.culprit,
                    "culprit_was": p.culprit_was,
                    "culprit_index": p.culprit_index,
                    "note": p.note,
                }
                for p in self.points
            ],
        }


def _first_divergence(a_recs: List[Dict[str, Any]],
                      b_recs: List[Dict[str, Any]]):
    """Index + pair of the first records that differ (span id ignored),
    or None when the logs agree."""
    for i in range(max(len(a_recs), len(b_recs))):
        ra = a_recs[i] if i < len(a_recs) else None
        rb = b_recs[i] if i < len(b_recs) else None
        if ra is None or rb is None:
            return i, ra, rb
        if record_identity(ra) != record_identity(rb):
            return i, ra, rb
    return None


def diff_runs(run_a: Dict[str, Any], run_b: Dict[str, Any]) -> RunDiff:
    """Align two runs point-by-point (any run shape, keyed by
    :func:`repro.obs.compare.point_key`), collect deltas of every
    :func:`~repro.obs.compare.point_metrics` leaf both sides carry, and
    attribute each differing point to the first diverging decision
    record.  Wall metrics (``wall.*``) count as noise.  Points are
    ranked by largest relative non-wall delta."""
    a, b = run_points(run_a), run_points(run_b)
    diff = RunDiff()
    diff.missing_in_b = sorted(k for k in a if k not in b)
    diff.missing_in_a = sorted(k for k in b if k not in a)
    for key in sorted(k for k in a if k in b):
        diff.n_compared += 1
        ma, mb = point_metrics(a[key]), point_metrics(b[key])
        deltas = [
            MetricDelta(m, ma[m], mb[m])
            for m in sorted(set(ma) & set(mb))
            if ma[m] != mb[m]
        ]
        if not deltas:
            continue
        pd = PointDiff(key=key, deltas=deltas)
        fa = a[key].get("machine_fp")
        fb = b[key].get("machine_fp")
        if fa and fb and fa != fb:
            # Different simulated-machine geometry: the runs measured
            # different machines, so no compiler decision is to blame.
            pd.note = (
                "machine fingerprint differs "
                f"({fa[:12]}.. vs {fb[:12]}..); divergence attributed "
                "to a machine-config change, not a compiler decision"
            )
            diff.points.append(pd)
            continue
        pa = a[key].get("provenance") or []
        pb = b[key].get("provenance") or []
        if not pa and not pb:
            pd.note = "no provenance recorded in either run; cannot attribute"
        elif not pa or not pb:
            which = "A" if not pa else "B"
            pd.note = f"no provenance recorded in run {which}; cannot attribute"
        else:
            div = _first_divergence(pa, pb)
            if div is None:
                pd.note = ("decision logs identical; delta not attributable "
                           "to a compiler decision (measurement noise?)")
            else:
                pd.culprit_index, pd.culprit_was, pd.culprit = div
        diff.points.append(pd)
    diff.points.sort(key=lambda p: (-p.score(), p.key))
    return diff
