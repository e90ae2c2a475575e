"""Decision provenance: *why* the compiler chose what it chose.

The paper's end-to-end results rest on a chain of heuristic decisions —
unimodular permutation selection (Section 3), the greedy decomposition
ladder and rank maximization (Section 5), BLOCK/CYCLIC folding, the
strip-mine + permute layout derivation (Section 4), and the div/mod
address optimizations (Section 4.4).  The tracing layer records *that*
those phases ran; this module records the decisions themselves so that
``python -m repro explain`` can render the decision tree for one
compilation and ``python -m repro diff``
(:func:`repro.obs.compare.diff_runs`) can attribute a diverging point
of two runs to the first decision that diverged
(:func:`record_identity` is the equality it uses).

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

__all__ = [
    "DecisionRecord",
    "ProvenanceLog",
    "capture",
    "record",
    "active",
    "collect_point",
    "record_identity",
    "STAGE_ORDER",
    "REASON_CATALOG",
]

# Pipeline-ordered stages a record can belong to; explain renders groups
# in this order.
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
