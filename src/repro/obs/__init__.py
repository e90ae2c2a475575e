"""repro.obs — structured tracing, metrics, and profiling hooks.

Usage at an instrumentation site::

    from repro import obs

    with obs.span("decomp.greedy", cat="decomp", program=prog.name) as sp:
        ...
        sp.add("nests_included", 3)
    obs.event("decomp.ladder", cat="decomp", nest="n0", rung="strict")
    obs.inc("addropt.invariant")

Recording is off by default (set ``REPRO_OBS=1`` or call
:func:`enable`); when off, every hook is a strict no-op — ``span()``
and ``counter()`` return shared singleton no-op objects and nothing is
allocated or stored.  Export collected data with
:func:`repro.obs.export.to_chrome_trace` (``chrome://tracing`` /
Perfetto), :func:`repro.obs.export.to_json`, or
:func:`repro.obs.export.summary`.
"""

from repro.obs.core import (
    ENV_FLAG,
    NOOP_SPAN,
    Collector,
    Event,
    Span,
    collector,
    counter,
    current_span_id,
    disable,
    enable,
    enabled,
    event,
    gauge,
    inc,
    reset,
    span,
)
from repro.obs.provenance import DecisionRecord, ProvenanceLog
from repro.obs.metrics import (
    NOOP_METRIC,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.export import (
    summary,
    to_chrome_trace,
    to_json,
    write_chrome_trace,
    write_json,
)

__all__ = [
    "ENV_FLAG",
    "NOOP_SPAN",
    "NOOP_METRIC",
    "Collector",
    "Counter",
    "Event",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "DecisionRecord",
    "ProvenanceLog",
    "collector",
    "counter",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "inc",
    "reset",
    "span",
    "summary",
    "to_chrome_trace",
    "to_json",
    "write_chrome_trace",
    "write_json",
]
