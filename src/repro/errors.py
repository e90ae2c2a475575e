"""Typed error hierarchy for the compile/simulate pipeline.

Every failure the pipeline can surface derives from :class:`ReproError`
and carries the coordinates of the failing work item (app/program,
scheme, processor count, pass name) so batch drivers and CLI layers can
report *where* something broke without parsing tracebacks:

========================  =================================================
class                     raised by
========================  =================================================
:class:`CompileError`     a pipeline pass failing (wraps the original)
:class:`LegalityError`    a transformation that breaks semantics
                          (e.g. a non-bijective data layout)
:class:`SimulationError`  the machine model failing on a compiled plan
:class:`VerifyError`      the semantic oracle finding a divergence
:class:`FaultInjected`    :mod:`repro.faults` firing at an injection site
:class:`JournalError`     the durable run journal (unreadable journal,
                          spec-fingerprint mismatch on ``--resume``)
========================  =================================================

This module must stay import-light (no repro imports) — it sits below
everything else in the dependency order.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "ReproError",
    "CompileError",
    "LegalityError",
    "SimulationError",
    "VerifyError",
    "FaultInjected",
    "JournalError",
]


class ReproError(Exception):
    """Base class; carries optional pipeline context for diagnostics."""

    def __init__(
        self,
        message: str = "",
        *,
        app: Optional[str] = None,
        scheme: Optional[str] = None,
        nprocs: Optional[int] = None,
        pass_name: Optional[str] = None,
        **extra: Any,
    ):
        super().__init__(message)
        self.app = app
        self.scheme = scheme
        self.nprocs = nprocs
        self.pass_name = pass_name
        self.extra = extra

    def context(self) -> Dict[str, Any]:
        """The non-empty context fields, JSON-ready."""
        out: Dict[str, Any] = {}
        for k in ("app", "scheme", "nprocs", "pass_name"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        out.update(self.extra)
        return out

    def __str__(self) -> str:
        base = super().__str__()
        ctx = self.context()
        if not ctx:
            return base
        tail = " ".join(f"{k}={v}" for k, v in sorted(ctx.items()))
        return f"{base} [{tail}]" if base else f"[{tail}]"


class CompileError(ReproError):
    """A pipeline pass failed; the original exception is chained."""


class LegalityError(CompileError):
    """A transformation violated a semantic invariant (e.g. a layout
    that maps two distinct elements to one address)."""


class SimulationError(ReproError):
    """The machine model failed while replaying a compiled plan."""


class VerifyError(ReproError):
    """The semantic verification oracle found a divergence."""


class FaultInjected(ReproError):
    """An injected fault (see :mod:`repro.faults`) fired at this site."""


class JournalError(ReproError):
    """The durable run journal is unreadable, incomplete in a way that
    prevents resuming, or records a different grid than requested."""
