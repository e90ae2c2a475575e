"""repro.obs — structured tracing, metrics, and profiling hooks.

Usage at an instrumentation site::

    from repro import obs

    with obs.span("decomp.greedy", cat="decomp", program=prog.name) as sp:
        ...
        sp.add("nests_included", 3)
    obs.event("decomp.ladder", cat="decomp", nest="n0", rung="strict")
    obs.inc("addropt.invariant")

Recording is off by default (call :func:`enable`); when off, every
hook is a strict no-op — ``span()`` and ``counter()`` return shared
singleton no-op objects and nothing is allocated or stored.
``repro perf`` records one point's window and reads it back as the
wall-time ledger (:mod:`repro.obs.perf`) and, with ``--trace``, as a
Chrome trace (:func:`repro.obs.export.to_chrome_trace`).
"""

from repro.obs.core import (
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
from repro.obs.export import to_chrome_trace

__all__ = [
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
    "to_chrome_trace",
]
