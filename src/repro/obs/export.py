"""Exporters for collected telemetry.

Three output shapes:

* :func:`to_json` — a full structured dump (spans, events, metrics);
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (one ``{"traceEvents": [...]}`` object), loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev: spans become
  complete ("X") events, structured events become instants ("i"), and
  span counters plus registry counters become counter ("C") tracks;
* :func:`summary` — a human-readable span tree with durations,
  attached counters, and the metric totals.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.core import Collector, Span
from repro.obs import core


def _jsonable(value: Any) -> Any:
    """Coerce attribute values into something json.dumps accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _us(t: float, t0: float) -> float:
    return (t - t0) * 1e6


def to_json(collector: Optional[Collector] = None) -> Dict[str, Any]:
    """Full structured dump of one recording."""
    c = collector or core.collector()
    return {
        "spans": [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "cat": s.cat,
                "start_us": _us(s.start, c.t0),
                "dur_us": _us(s.end, s.start),
                "attrs": _jsonable(s.attrs),
                "counters": _jsonable(s.counters),
            }
            for s in sorted(c.spans, key=lambda s: s.start)
        ],
        "events": [
            {
                "name": e.name,
                "cat": e.cat,
                "span": e.span_id,
                "ts_us": _us(e.ts, c.t0),
                "attrs": _jsonable(e.attrs),
            }
            for e in c.events
        ],
        "metrics": c.metrics.snapshot(),
    }


def to_chrome_trace(
    collector: Optional[Collector] = None,
    *,
    pid: int = 0,
    process_name: str = "repro",
) -> Dict[str, Any]:
    """Chrome trace-event rendering of one recording, as one lane.

    A metadata row names the lane; the timed events follow sorted by
    ``(ts, name)``, so the lane is monotonic and byte-stable when
    several events share a timestamp (common for counter flushes at
    the end).
    """
    c = collector or core.collector()

    def ts(t: float) -> float:
        return _us(t, c.t0)

    timed: List[Dict[str, Any]] = []
    for s in sorted(c.spans, key=lambda s: s.start):
        counters = _jsonable(s.counters)
        timed.append({
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "pid": pid,
            "tid": 0,
            "ts": ts(s.start),
            "dur": _us(s.end, s.start),
            "args": dict(sorted({**_jsonable(s.attrs),
                                 **counters}.items())),
        })
        # Span counters additionally appear as counter tracks so miss
        # classes etc. render as stacked graphs in the trace viewer.
        for k, v in counters.items():
            timed.append({
                "name": f"{s.name}.{k}",
                "cat": s.cat,
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "ts": ts(s.end),
                "args": {k: v},
            })
    for e in c.events:
        timed.append({
            "name": e.name,
            "cat": e.cat,
            "ph": "i",
            "s": "t",
            "pid": pid,
            "tid": 0,
            "ts": ts(e.ts),
            "args": _jsonable(e.attrs),
        })
    end_ts = max([ts(s.end) for s in c.spans]
                 + [ts(e.ts) for e in c.events] + [0.0])
    for name, counter in sorted(c.metrics.counters.items()):
        timed.append({
            "name": name,
            "ph": "C",
            "pid": pid,
            "tid": 0,
            "ts": end_ts,
            "args": {name: _jsonable(counter.value)},
        })
    timed.sort(key=lambda e: (e["ts"], e["name"]))
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": process_name}}, *timed]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str, collector: Optional[Collector] = None
) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(collector), fh, indent=1)
    return path


def write_collapsed(path: str, stacks: Any) -> str:
    """Write collapsed/folded stack lines (``frame;frame value``) to
    ``path`` (``repro perf --stacks``); returns the path.
    ``stacks`` is either a ``{stack: seconds}`` mapping (sorted,
    6-decimal values — the same rendering as
    :meth:`repro.obs.hotspot.HotspotReport.collapsed`) or pre-rendered
    lines.  The format is what external flamegraph tooling
    (``flamegraph.pl`` etc.) consumes directly."""
    if isinstance(stacks, dict):
        lines = [f"{k} {stacks[k]:.6f}" for k in sorted(stacks)]
    else:
        lines = [str(s).rstrip("\n") for s in (stacks or [])]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return path


def write_json(path: str, collector: Optional[Collector] = None) -> str:
    """Write the full structured dump to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(to_json(collector), fh, indent=1)
    return path


def summary(collector: Optional[Collector] = None, max_events: int = 20) -> str:
    """Human-readable recording summary (span tree + metrics)."""
    c = collector or core.collector()
    lines: List[str] = []

    children: Dict[Optional[int], List[Span]] = {}
    for s in sorted(c.spans, key=lambda s: s.start):
        children.setdefault(s.parent_id, []).append(s)

    def render(span: Span, depth: int) -> None:
        ms = (span.end - span.start) * 1e3
        attrs = " ".join(
            f"{k}={v}" for k, v in span.attrs.items() if k != "error"
        )
        ctrs = " ".join(f"{k}={v:g}" for k, v in span.counters.items())
        extra = " ".join(x for x in (attrs, ctrs) if x)
        lines.append(
            f"{'  ' * depth}{span.name:<{max(1, 36 - 2 * depth)}s}"
            f"{ms:10.3f} ms" + (f"  [{extra}]" if extra else "")
        )
        for child in children.get(span.span_id, ()):
            render(child, depth + 1)

    if c.spans:
        lines.append("spans:")
        # Roots: no parent, or parent never closed/recorded.
        recorded = {s.span_id for s in c.spans}
        for s in sorted(c.spans, key=lambda s: s.start):
            if s.parent_id is None or s.parent_id not in recorded:
                render(s, 1)

    snap = c.metrics.snapshot()
    store_counters = {
        k: v for k, v in snap["counters"].items()
        if k.startswith(("store.", "journal.", "fsck."))
    }
    if store_counters or "store.bytes" in snap["gauges"]:
        # The persistent result store — and its crash-safety companions
        # (run journal, fsck) — get their own
        # section: hit/miss/invalidation/durability health is the first
        # thing an incremental-run investigation reads.
        lines.append("result store:")
        for k, v in store_counters.items():
            lines.append(f"  {k:<40s}{v:>12g}")
        if "store.bytes" in snap["gauges"]:
            lines.append(
                f"  {'store.bytes':<40s}{snap['gauges']['store.bytes']:>12g}")
    if snap["counters"]:
        lines.append("counters:")
        for k, v in snap["counters"].items():
            lines.append(f"  {k:<40s}{v:>12g}")
    if snap["gauges"]:
        lines.append("gauges:")
        for k, v in snap["gauges"].items():
            lines.append(f"  {k:<40s}{v:>12g}")
    if c.events:
        lines.append(f"events ({len(c.events)}):")
        for e in c.events[:max_events]:
            attrs = " ".join(f"{k}={v}" for k, v in e.attrs.items())
            lines.append(f"  {e.name:<30s}{attrs}")
        if len(c.events) > max_events:
            lines.append(f"  ... {len(c.events) - max_events} more")
    return "\n".join(lines) if lines else "(no telemetry recorded)"
