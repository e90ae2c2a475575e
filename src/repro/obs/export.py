"""The Chrome trace-event exporter.

:func:`to_chrome_trace` renders one recording as a Chrome trace-event
object (``{"traceEvents": [...]}``), loadable in ``chrome://tracing``
or https://ui.perfetto.dev: spans become complete ("X") events, and
span counters plus the collector's flat counters become counter ("C")
tracks.  ``repro perf --trace`` writes it for its measurement window.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.core import Collector
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


def to_chrome_trace(collector: Optional[Collector] = None
                    ) -> Dict[str, Any]:
    """Chrome trace-event rendering of one recording, as one lane
    (process 0, named ``repro``).

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
            "pid": 0,
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
                "pid": 0,
                "tid": 0,
                "ts": ts(s.end),
                "args": {k: v},
            })
    end_ts = max([ts(s.end) for s in c.spans] + [0.0])
    for name, value in sorted(c.counters.items()):
        timed.append({
            "name": name,
            "ph": "C",
            "pid": 0,
            "tid": 0,
            "ts": end_ts,
            "args": {name: _jsonable(value)},
        })
    timed.sort(key=lambda e: (e["ts"], e["name"]))
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "repro"}}, *timed]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
