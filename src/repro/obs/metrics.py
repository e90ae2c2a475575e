"""Metric instruments: counters and gauges.

All instruments live in a :class:`MetricsRegistry` owned by the active
collector (:mod:`repro.obs.core`).  When observability is disabled the
module-level accessors hand back the *shared* :data:`NOOP_METRIC`
instead — callers keep a uniform ``.add()/.set()`` surface
and pay only an attribute lookup plus a no-op call.
"""

from __future__ import annotations

from typing import Any, Dict


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, value: int = 1) -> "Counter":
        self.value += value
        return self


class Gauge:
    """Last-set value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> "Gauge":
        self.value = value
        return self


class _NoopMetric:
    """Shared do-nothing instrument returned while disabled."""

    __slots__ = ()

    def add(self, value: int = 1) -> "_NoopMetric":
        return self

    def set(self, value: float) -> "_NoopMetric":
        return self


NOOP_METRIC = _NoopMetric()


class MetricsRegistry:
    """Create-on-demand instrument store."""

    __slots__ = ("counters", "gauges")

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every instrument."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
        }
