"""Deterministic stack sampler behind ``repro perf record --flame`` and
``--stacks``.

A **tick-counted** statistical sampler built on ``sys.setprofile``:

* The hook body's fast path is two integer operations (tick increment +
  modulo test).  Every ``interval``-th profile event — call, return, or
  C-call boundary — takes a *sample*: it reads ``perf_counter`` once,
  charges the elapsed time since the previous sample to the current
  Python stack, and returns.  Which events sample is therefore a pure
  function of the event stream, not of wall-clock timers or signals —
  run the same workload twice and the samples land on the same events
  (the recorded *durations* are still wall time).
* A sample's stack is the chain of frames inside the ``repro``
  package, each keyed ``<repro-relative file>:<qualname>`` (e.g.
  ``machine/trace.py:phase_trace``) and joined outermost first
  (``outer;inner``); seconds accumulate per distinct stack.  Samples
  with no repro frame at all fall into the :data:`EXTERNAL` bucket, so
  the stacks always account for every sample.  Long opaque C calls
  (numpy kernels) emit no events while running; their time is
  attributed at the next sampled event, which — at the default
  interval — still sits in the function that issued them.
* :meth:`HotspotReport.collapsed` emits the classic folded lines that
  :func:`repro.obs.flame.flamegraph_svg` renders and ``perf record
  --stacks`` writes.

The disabled path is strict: while no profiler is started, this module
installs nothing — ``sys.getprofile()`` stays untouched and no repro
code pays a single extra instruction (the overhead guard in
``tests/test_hotspot.py`` asserts this the same way ``tests/test_obs.py``
guards the obs hooks).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "DEFAULT_INTERVAL",
    "EXTERNAL",
    "HotspotProfiler",
    "HotspotReport",
]

# Events between samples.  Small enough that attribution granularity is
# a handful of Python calls; prime so the sampling phase cannot lock
# step with loops whose bodies emit a power-of-two number of events.
DEFAULT_INTERVAL = 7

EXTERNAL = "<external>"

# Root of the repro package (".../src/repro"); frames whose code lives
# under it are attributable, everything else is EXTERNAL.
_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PKG_PREFIX = os.path.join(_PKG_ROOT, "")


def _func_key(code) -> Optional[str]:
    """``machine/trace.py:phase_trace`` for repro code, None otherwise."""
    fn = code.co_filename
    if not fn.startswith(_PKG_PREFIX):
        return None
    rel = fn[len(_PKG_PREFIX):]
    name = getattr(code, "co_qualname", None) or code.co_name
    return f"{rel}:{name}"


@dataclass
class HotspotReport:
    """One finished sampling session: collapsed stacks
    (``{"outer;inner": seconds}``) plus the sampling bookkeeping."""

    wall_s: float
    ticks: int
    samples: int
    interval: int
    stacks: Dict[str, float] = field(default_factory=dict)

    def collapsed(self) -> List[str]:
        """The sampled stacks as folded lines (``a;b;c 0.000123``,
        seconds, stack-sorted) — flamegraph input."""
        return [f"{k} {self.stacks[k]:.6f}" for k in sorted(self.stacks)]


class HotspotProfiler:
    """Tick-counted stack sampler; use via ``start()``/``stop()`` or as
    a context manager (``report()`` afterwards).

    ``clock`` is injectable for deterministic tests (any zero-argument
    callable returning monotonically increasing floats).
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 clock: Callable[[], float] = time.perf_counter):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.interval = int(interval)
        self._clock = clock
        self._stacks: Dict[str, float] = {}
        self._ticks = 0
        self._samples = 0
        self._t_start = 0.0
        self._t_stop = 0.0
        self._last = 0.0
        self._running = False
        self._prev_hook = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HotspotProfiler":
        if self._running:
            raise RuntimeError("profiler already running")
        self._prev_hook = sys.getprofile()
        self._running = True
        self._t_start = self._last = self._clock()
        sys.setprofile(self._hook)
        return self

    def stop(self) -> HotspotReport:
        if not self._running:
            raise RuntimeError("profiler not running")
        sys.setprofile(self._prev_hook)
        self._t_stop = self._clock()
        self._running = False
        self._prev_hook = None
        return self.report()

    def __enter__(self) -> "HotspotProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._running:
            self.stop()
        return False

    # -- the hook ------------------------------------------------------------

    def _hook(self, frame, event, arg) -> None:
        t = self._ticks + 1
        self._ticks = t
        if t % self.interval:
            return
        now = self._clock()
        dt = now - self._last
        self._last = now
        self._samples += 1
        path: List[str] = []
        f = frame
        while f is not None:
            key = _func_key(f.f_code)
            if key is not None:
                path.append(key)  # innermost first; reversed below
            f = f.f_back
        skey = ";".join(reversed(path)) if path else EXTERNAL
        self._stacks[skey] = self._stacks.get(skey, 0.0) + dt

    # -- reporting -----------------------------------------------------------

    def report(self) -> HotspotReport:
        """The current (or final) stacks and sampling counts."""
        end = self._t_stop if not self._running else self._clock()
        return HotspotReport(
            wall_s=end - self._t_start,
            ticks=self._ticks,
            samples=self._samples,
            interval=self.interval,
            stacks=dict(self._stacks),
        )
