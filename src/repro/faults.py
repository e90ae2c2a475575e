"""Deterministic, seeded fault injection for robustness testing.

A :class:`FaultPlan` assigns a firing rate to named *sites*; consumers
ask :func:`should_fire` at each site and the answer is derived from a
counted SHA-256 draw — the full firing sequence is a pure function of
``(seed, site, call number)``, so a chaos run is reproducible while
retries still see fresh draws (the retry is a later call).

Activate with the ``REPRO_FAULTS`` environment variable (inherited by
batch worker processes) or the batch CLI's ``--inject-faults``; the
spec is a comma-separated ``key=value`` list::

    REPRO_FAULTS="seed=7,disk.torn_write=0.2,worker.crash=0.2,worker.stall=0.1,stall_s=5"

Recognized sites and what the consumers do when they fire:

=================  ========================================================
``pass``           a :class:`~repro.errors.FaultInjected` is raised
                   mid-pass → degradation / per-point error isolation
``pass.stall``     a pass sleeps ``stall_s`` seconds inside its span —
                   a pure *slowdown*, not a failure; narrow it to one
                   pass with ``stall_pass=<name>``.  The perf CI job
                   plants a deterministic wall-time culprit this way
                   and requires ``repro diff`` to rank it first
``worker.crash``   a batch worker process hard-exits (``os._exit``) →
                   the driver respawns the pool and retries
``worker.stall``   a batch worker sleeps ``stall_s`` seconds → the
                   driver's per-point timeout fires
``disk.enospc``    :func:`repro.util.atomicio.write_atomic` raises
                   ``OSError(ENOSPC)`` → store/journal writes degrade
                   (counted, never fatal)
``disk.torn_write`` an atomic write (or journal append) lands only a
                   prefix of its payload, unsynced → corrupt-entry
                   quarantine, ``repro fsck``, and the journal's
                   torn-tail reader all get exercised
``driver.kill``    the grid *driver* SIGKILLs itself right after
                   journaling a finished point → ``--resume`` recovery
=================  ========================================================

``worker.*`` sites only ever fire inside batch worker processes
(:func:`maybe_worker_faults` is only called there); ``driver.kill``
only ever fires in the driver (:func:`maybe_driver_kill` is called
from the grid engine's completion callback); everything else is
process-agnostic.  When no plan is configured every probe is a cheap
no-op returning ``False``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import FaultInjected

__all__ = [
    "ENV_FLAG",
    "SITES",
    "FaultPlan",
    "active",
    "check",
    "configure",
    "current_plan",
    "maybe_driver_kill",
    "maybe_pass_stall",
    "maybe_worker_faults",
    "should_fire",
]

ENV_FLAG = "REPRO_FAULTS"

SITES = (
    "pass", "pass.stall", "worker.crash", "worker.stall",
    "disk.enospc", "disk.torn_write", "driver.kill",
)


@dataclass
class FaultPlan:
    """Firing rates per site plus the shared seed and stall duration."""

    seed: int = 0
    rates: Dict[str, float] = field(default_factory=dict)
    stall_seconds: float = 30.0
    # Restrict "pass.stall" to one pass name; empty = every pass.
    stall_pass: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,key=value`` spec (see module docstring)."""
        plan = cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad fault spec item {part!r}: expected key=value"
                )
            key, _, value = part.partition("=")
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == "seed":
                    plan.seed = int(value)
                elif key in ("stall_s", "stall_seconds"):
                    plan.stall_seconds = float(value)
                elif key == "stall_pass":
                    plan.stall_pass = value
                elif key in SITES:
                    rate = float(value)
                    if not (0.0 <= rate <= 1.0):
                        raise ValueError("rate outside [0, 1]")
                    plan.rates[key] = rate
                else:
                    raise ValueError(f"unknown fault site {key!r}")
            except ValueError as exc:
                raise ValueError(
                    f"bad fault spec item {part!r}: {exc}"
                ) from None
        return plan

    def rate(self, site: str) -> float:
        return self.rates.get(site, 0.0)

    def spec(self) -> str:
        """Round-trippable spec string (for handing to subprocesses)."""
        parts = [f"seed={self.seed}", f"stall_s={self.stall_seconds:g}"]
        if self.stall_pass:
            parts.append(f"stall_pass={self.stall_pass}")
        parts += [f"{k}={v:g}" for k, v in sorted(self.rates.items())]
        return ",".join(parts)


# Module state: the configured plan and per-site draw counters.  Worker
# processes inherit REPRO_FAULTS through the environment and lazily
# build their own plan (and counters) on first probe.
_plan: Optional[FaultPlan] = None
_configured = False
_counts: Dict[str, int] = {}


def configure(spec: Optional[str]) -> Optional[FaultPlan]:
    """Install a fault plan from a spec string (``None`` disables fault
    injection regardless of the environment).  Resets draw counters."""
    global _plan, _configured
    _plan = FaultPlan.parse(spec) if spec else None
    _configured = True
    _counts.clear()
    return _plan


def current_plan() -> Optional[FaultPlan]:
    """The active plan: an explicit :func:`configure`, else the
    ``REPRO_FAULTS`` environment variable, else ``None``."""
    global _plan, _configured
    if not _configured:
        spec = os.environ.get(ENV_FLAG, "").strip()
        _plan = FaultPlan.parse(spec) if spec else None
        _configured = True
    return _plan


def active() -> bool:
    return current_plan() is not None


def should_fire(site: str) -> bool:
    """Deterministic seeded draw: does the fault at ``site`` fire now?"""
    plan = current_plan()
    if plan is None:
        return False
    rate = plan.rate(site)
    if rate <= 0.0:
        return False
    _counts[site] = n = _counts.get(site, 0) + 1
    digest = hashlib.sha256(f"{plan.seed}:{site}:{n}".encode()).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < rate


def check(site: str, **context) -> None:
    """Raise :class:`~repro.errors.FaultInjected` when ``site`` fires."""
    if should_fire(site):
        raise FaultInjected(f"injected fault at {site}", **context)


def maybe_worker_faults() -> None:
    """Fire worker-process faults: hard crash or stall.  Only batch
    worker processes call this — the driver process never does."""
    plan = current_plan()
    if plan is None:
        return
    if should_fire("worker.crash"):
        os._exit(3)
    if should_fire("worker.stall"):
        time.sleep(plan.stall_seconds)


def maybe_pass_stall(pass_name: str) -> None:
    """Fire the ``pass.stall`` fault: sleep ``stall_s`` seconds inside
    the named pass's span.  Unlike the ``pass`` site this is a pure
    slowdown — the pass still succeeds — so the wall-time ledger books
    the sleep against that pass and ``repro diff`` must rank its
    self time first.  ``stall_pass=<name>`` narrows the site to one
    pass; without it every pass draws."""
    plan = current_plan()
    if plan is None or plan.rate("pass.stall") <= 0.0:
        return
    if plan.stall_pass and plan.stall_pass != pass_name:
        return
    if should_fire("pass.stall"):
        time.sleep(plan.stall_seconds)


def maybe_driver_kill() -> None:
    """Fire the ``driver.kill`` fault: SIGKILL the *driver* process.

    The grid engine calls this after a finished point has been
    persisted (store write + journal append), which is exactly the
    crash window ``--resume`` recovery is built for: everything
    journaled so far must be served on restart, everything else
    re-executed.  A SIGKILL cannot be caught, so no graceful-shutdown
    path softens it — this is the hard-crash chaos site.
    """
    if should_fire("driver.kill"):
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
