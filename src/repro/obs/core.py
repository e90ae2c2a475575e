"""Span tracer, flat counters, and the global enable switch.

One process-global :class:`Collector` records activity only:

* **spans** — nested context-manager timings (``with obs.span(...)``),
  each carrying free-form attributes and attached counters;
* **counters** — one flat ``name -> value`` dict (:func:`inc`),
  which the address optimizer fills with its Section 4.3 ``addropt.*``
  counts.

Decisions are not recorded here: provenance
(:mod:`repro.obs.provenance`) keeps them, and the modules that do the
work keep their own counts (``StoreStats``, ``JournalWriter``,
``CompileSession.stats()``, ``SimResult``).

Observability is **off by default**; :func:`enable` turns it on
(``repro perf`` and ``repro bench`` do, for their measurement window).
The disabled fast path is strict: :func:`span` returns the one shared
:data:`NOOP_SPAN` and :func:`inc` returns immediately after a single
flag test — no objects are allocated and nothing is recorded.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional


class _NoopSpan:
    """Shared do-nothing span; also its own context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def add(self, counter: str, value: int = 1) -> "_NoopSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class Span:
    """A timed region of the pipeline.

    Use as a context manager; nesting is tracked by the collector's
    span stack, so children know their parent without threading ids
    through call signatures.
    """

    __slots__ = (
        "name", "cat", "span_id", "parent_id", "start", "end",
        "attrs", "counters", "_collector",
    )

    def __init__(self, collector: "Collector", name: str, cat: str,
                 span_id: int, attrs: Dict[str, Any]):
        self._collector = collector
        self.name = name
        self.cat = cat
        self.span_id = span_id
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs
        self.counters: Dict[str, float] = {}

    def __enter__(self) -> "Span":
        stack = self._collector._stack
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        stack = self._collector._stack
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._collector.spans.append(self)
        return False

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def add(self, counter: str, value: float = 1) -> "Span":
        self.counters[counter] = self.counters.get(counter, 0) + value
        return self

    @property
    def duration(self) -> float:
        return (self.end or time.perf_counter()) - self.start


class Collector:
    """Accumulates spans and counters for one recording."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 1

    def span(self, name: str, cat: str = "compiler", **attrs) -> Span:
        sid = self._next_id
        self._next_id += 1
        return Span(self, name, cat, sid, attrs)


_enabled = False
_collector = Collector()


def enabled() -> bool:
    """Whether telemetry is being recorded."""
    return _enabled


def enable(reset: bool = True) -> Collector:
    """Turn recording on (optionally starting a fresh collector)."""
    global _enabled, _collector
    if reset:
        _collector = Collector()
    _enabled = True
    return _collector


def disable() -> None:
    """Turn recording off; collected data stays readable."""
    global _enabled
    _enabled = False


def reset() -> Collector:
    """Discard collected data (without changing the enable flag)."""
    global _collector
    _collector = Collector()
    return _collector


def collector() -> Collector:
    """The active collector (read it to export/inspect)."""
    return _collector


def span(name: str, cat: str = "compiler", **attrs):
    """Open a timed span; the shared no-op span when disabled."""
    if not _enabled:
        return NOOP_SPAN
    return _collector.span(name, cat, **attrs)


def current_span_id():
    """Id of the innermost open span, or ``None`` when tracing is off or
    no span is open.  Used by provenance records to anchor decisions to
    the pass span that produced them."""
    if not _enabled:
        return None
    stack = _collector._stack
    return stack[-1].span_id if stack else None


def inc(name: str, value: float = 1) -> None:
    """Bump a flat counter (dropped when disabled)."""
    if not _enabled:
        return
    counters = _collector.counters
    counters[name] = counters.get(name, 0) + value
