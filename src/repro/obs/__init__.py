"""repro.obs — span tracing, flat counters, and profiling hooks.

Usage at an instrumentation site::

    from repro import obs

    with obs.span("decomp.greedy", cat="decomp", program=prog.name) as sp:
        ...
        sp.add("nests_included", 3)

Recording is off by default (call :func:`enable`); when off, every
hook is a strict no-op — ``span()`` returns the shared singleton
no-op span and nothing is allocated or stored.  Spans record
activity; decisions go to :mod:`repro.obs.provenance`.  Besides the
spans, :func:`inc` bumps one flat counter dict, which only the
address optimizer's Section 4.3 ``addropt.*`` counts use.
``repro perf`` records one point's window and reads it back as the
wall-time ledger (:mod:`repro.obs.perf`) and, with ``--trace``, as a
Chrome trace (:func:`repro.obs.export.to_chrome_trace`).
"""

from repro.obs.core import (
    NOOP_SPAN,
    Collector,
    Span,
    collector,
    current_span_id,
    disable,
    enable,
    enabled,
    inc,
    reset,
    span,
)
from repro.obs.provenance import DecisionRecord, ProvenanceLog
from repro.obs.export import to_chrome_trace

__all__ = [
    "NOOP_SPAN",
    "Collector",
    "Span",
    "DecisionRecord",
    "ProvenanceLog",
    "collector",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "inc",
    "reset",
    "span",
    "to_chrome_trace",
]
