"""Compile sessions: the pass pipeline's front door.

A :class:`CompileSession` owns an :class:`~repro.pipeline.cache.ArtifactCache`
and a :class:`~repro.pipeline.manager.PassManager` and exposes the same
three operations as the legacy driver (``restructure`` /
``compile`` / ``compile_all``), now as explicit pass-pipeline
executions with content-addressed artifact reuse.  It replaces the old
``prog._restructured`` attribute hack: memoization lives in the
session's cache, keyed by program content, and never mutates caller
objects.

A process-wide default session backs the compatibility wrappers in
:mod:`repro.compiler`; callers that want isolation (a cold profile, a
batch worker) construct their own.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Tuple

from repro import obs
from repro.obs.provenance import ProvenanceLog
from repro.codegen.spmd import Scheme, SpmdProgram
from repro.decomp.model import Decomposition
from repro.ir.program import Program
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.fingerprint import (
    fingerprint_decomposition,
    fingerprint_program,
)
from repro.pipeline.manager import PassManager
from repro.pipeline.passes import (
    ART_DECOMPOSITION,
    ART_PROGRAM,
    ART_RESTRUCTURED,
    DecomposePass,
    LayoutPass,
    PassContext,
    RestructurePass,
    SpmdCodegenPass,
    VerifyPass,
)

__all__ = [
    "ENV_VERIFY",
    "CompileSession",
    "get_session",
    "set_session",
    "reset_session",
]

_AUTO = object()

ENV_VERIFY = "REPRO_VERIFY"


class CompileSession:
    """One pipeline instance: passes + artifact cache.

    ``cache`` may be an :class:`ArtifactCache`, ``None`` to disable
    artifact reuse entirely (every pass always runs), or omitted for a
    fresh in-memory cache.

    ``verify=True`` appends the :class:`VerifyPass` oracle to every
    compile — each SPMD plan is executed against the sequential
    reference and a divergence raises
    :class:`~repro.errors.VerifyError`.  ``verify=None`` (default)
    reads the ``REPRO_VERIFY`` environment flag.
    """

    def __init__(self, cache=_AUTO, max_dims: int = 2,
                 verify: Optional[bool] = None):
        if cache is _AUTO:
            cache = ArtifactCache()
        if verify is None:
            verify = os.environ.get(ENV_VERIFY, "").lower() not in (
                "", "0", "false", "no"
            )
        self.cache: Optional[ArtifactCache] = cache
        self.manager = PassManager(cache)
        self.max_dims = max_dims
        self.verify = bool(verify)
        self._restructure = RestructurePass()
        self._decompose = DecomposePass()
        self._layout = LayoutPass()
        self._spmd = SpmdCodegenPass()
        self._verify = VerifyPass()
        # Decision log of the most recent compile()/compile_all() point
        # (cache hits replay the original records, so this is complete
        # even on a fully warm session).
        self.last_provenance = ProvenanceLog()

    # -- pipeline operations ----------------------------------------------

    def _context(self, prog: Program, **kw) -> PassContext:
        ctx = PassContext(
            program=prog,
            program_fp=fingerprint_program(prog),
            max_dims=self.max_dims,
            **kw,
        )
        ctx.artifacts[ART_PROGRAM] = prog
        return ctx

    def restructure(self, prog: Program) -> Program:
        """The restructured form of ``prog`` (cached by content).

        The output is registered as its own fixed point, so
        restructuring an already-restructured program returns it
        unchanged — the property the old attribute memo provided,
        without mutating any ``Program``.
        """
        ctx = self._context(prog)
        out = self.manager.execute(self._restructure, ctx)
        if out is not prog and self.cache is not None:
            out_ctx = self._context(out)
            if out_ctx.program_fp != ctx.program_fp:
                self.manager.seed(
                    self._restructure.cache_key(out_ctx), out
                )
        return out

    def compile(
        self,
        prog: Program,
        scheme: Scheme,
        nprocs: int,
        decomp: Optional[Decomposition] = None,
        max_dims: Optional[int] = None,
        line_pad_elements: Optional[int] = None,
        decomp_nprocs: Optional[int] = None,
    ) -> SpmdProgram:
        """Compile one (program, scheme, nprocs) point through the
        pipeline.

        ``decomp`` supplies an external decomposition (e.g. from HPF
        directives); its content fingerprint then keys the downstream
        artifacts.  ``decomp_nprocs`` pins the processor count the
        derived decomposition's folding is chosen for (a sweep passes
        its maximum so every point shares one decomposition, matching
        :func:`repro.machine.simulate.speedup_curve`).
        """
        prog.validate()
        ctx = self._context(
            prog,
            scheme=scheme,
            nprocs=nprocs,
            decomp_nprocs=decomp_nprocs or nprocs,
            line_pad_elements=line_pad_elements,
        )
        if max_dims is not None:
            ctx.max_dims = max_dims
        with obs.span("compiler.compile", cat="compiler",
                      program=prog.name, scheme=scheme.value,
                      nprocs=nprocs):
            spmd = self._compile_ctx(ctx, decomp)
        self.last_provenance = ctx.provenance
        return spmd

    def _compile_ctx(self, ctx: PassContext,
                     decomp: Optional[Decomposition]) -> SpmdProgram:
        self._restructure_into(ctx)
        if ctx.scheme is Scheme.BASE:
            spmd = self.manager.execute(self._spmd, ctx)
        else:
            if decomp is not None:
                ctx.decomp_token = fingerprint_decomposition(decomp)
                ctx.artifacts[ART_DECOMPOSITION] = decomp
            else:
                self.manager.execute(self._decompose, ctx)
            self.manager.execute(self._layout, ctx)
            spmd = self.manager.execute(self._spmd, ctx)
        if self.verify:
            self.manager.execute(self._verify, ctx)
        return spmd

    def _restructure_into(self, ctx: PassContext) -> Program:
        out = self.manager.execute(self._restructure, ctx)
        ctx.artifacts[ART_RESTRUCTURED] = out
        return out

    def compile_degradable(
        self,
        prog: Program,
        scheme: Scheme,
        nprocs: int,
        **kw,
    ) -> Tuple[SpmdProgram, Optional[str]]:
        """:meth:`compile` with graceful degradation.

        If a decomposition-scheme compile fails, fall back to the
        sequential-layout ``BASE`` scheme for the same point instead of
        aborting — the batch driver uses this so one broken scheme
        cannot sink a whole grid.  Returns ``(spmd, reason)`` where
        ``reason`` is ``None`` on the normal path and a one-line
        description of the original failure when degraded.  ``BASE``
        compiles (no fallback left) and non-exception conditions
        propagate unchanged.
        """
        try:
            return self.compile(prog, scheme, nprocs, **kw), None
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if scheme is Scheme.BASE:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            obs.inc("pipeline.degraded")
            obs.event("pipeline.degraded", cat="pipeline",
                      program=prog.name, scheme=scheme.value,
                      nprocs=nprocs, error=reason)
            kw.pop("decomp", None)
            spmd = self.compile(prog, Scheme.BASE, nprocs, **kw)
            return spmd, reason

    def compile_all(self, prog: Program, nprocs: int,
                    max_dims: Optional[int] = None) -> "CompiledProgram":
        """All three Section-6 configurations of one program, sharing
        one restructure and one decomposition."""
        from repro.compiler import CompiledProgram

        prog.validate()
        md = self.max_dims if max_dims is None else max_dims
        with obs.span("compiler.compile_all", cat="compiler",
                      program=prog.name, nprocs=nprocs):
            spmds: Dict[Scheme, SpmdProgram] = {}
            decomp: Optional[Decomposition] = None
            for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                           Scheme.COMP_DECOMP_DATA):
                ctx = self._context(
                    prog, scheme=scheme, nprocs=nprocs,
                    decomp_nprocs=nprocs,
                )
                ctx.max_dims = md
                spmds[scheme] = self._compile_ctx(ctx, None)
                self.last_provenance = ctx.provenance
                if scheme is not Scheme.BASE and decomp is None:
                    decomp = ctx.artifacts[ART_DECOMPOSITION]
            return CompiledProgram(
                base=spmds[Scheme.BASE],
                comp_decomp=spmds[Scheme.COMP_DECOMP],
                comp_decomp_data=spmds[Scheme.COMP_DECOMP_DATA],
                decomposition=decomp,
            )

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Pass run/hit counts plus cache counters (JSON-ready)."""
        out: Dict[str, object] = dict(self.manager.counts())
        out["cache"] = (
            self.cache.stats.as_dict() if self.cache is not None else None
        )
        return out


# -- process-wide default session -------------------------------------------

_lock = threading.Lock()
_session: Optional[CompileSession] = None


def get_session() -> CompileSession:
    """The process-wide default session (created on first use)."""
    global _session
    if _session is None:
        with _lock:
            if _session is None:
                _session = CompileSession()
    return _session


def set_session(session: Optional[CompileSession]) -> None:
    """Replace the default session (``None`` → recreate lazily)."""
    global _session
    with _lock:
        _session = session


def reset_session() -> CompileSession:
    """Install and return a fresh default session (used by tests and
    cold-profile paths to guarantee real pass executions)."""
    session = CompileSession()
    set_session(session)
    return session
