"""Compile sessions: the one driver of the compiler's stages.

A :class:`CompileSession` runs ``restructure → decompose → layout →
spmd`` (:mod:`repro.pipeline.passes`) for one point and memoizes each
stage's artifact, with the decision records that produced it, in an
in-memory LRU of :data:`CACHE_CAPACITY` entries.  A key is a plain
tuple that starts with the stage name and the source program's content
fingerprint, so structurally identical programs share artifacts and no
caller object is ever mutated.  The memo lives and dies with the
session; finished point results persist across processes in the result
store (:mod:`repro.pipeline.store`).

Every real stage run is a ``pass.<name>`` span; a memo hit replays
the original run's decision records.  :meth:`CompileSession.stats`
counts both, by stage name.

A process-wide default session backs the wrappers in
:mod:`repro.compiler`; callers that want isolation (a cold profile, a
batch worker) construct their own.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Dict, Optional, Tuple

from repro import faults, obs
from repro.codegen.spmd import Scheme, SpmdProgram
from repro.decomp.model import Decomposition
from repro.errors import CompileError, ReproError
from repro.ir.program import Program
from repro.obs import provenance
from repro.obs.provenance import ProvenanceLog
from repro.pipeline import passes
from repro.pipeline.fingerprint import (
    fingerprint_decomposition,
    fingerprint_program,
)

__all__ = [
    "CACHE_CAPACITY",
    "CompileSession",
    "get_session",
    "set_session",
    "reset_session",
]

CACHE_CAPACITY = 256
"""Artifacts one session's LRU holds before it evicts the oldest."""


class CompileSession:
    """Runs and memoizes the compiler's stages.

    ``cache=False`` (the CLI's ``--no-cache``) runs every stage on
    every compile and keeps nothing.
    """

    def __init__(self, cache: bool = True):
        self._memo: Optional[OrderedDict] = OrderedDict() if cache else None
        self._runs: Counter = Counter()
        self._hits: Counter = Counter()
        # Decision log of the most recent compile()/compile_all() point
        # (memo hits replay the original records, so this is complete
        # even on a fully warm session).
        self.last_provenance = ProvenanceLog()

    # -- one stage ---------------------------------------------------------

    def _stage(self, name: str, key: Tuple, log: ProvenanceLog,
               prog: Program, scheme: Optional[Scheme], nprocs: int,
               fn, *args):
        """Stage ``name``'s artifact under ``key``: replayed from the
        memo, or made by ``fn(*args)`` inside its ``pass.<name>`` span.
        Either way its decision records are appended to ``log``."""
        memo = self._memo
        if memo is not None:
            key = (name,) + key
            hit = memo.get(key)
            if hit is not None:
                memo.move_to_end(key)
                self._hits[name] += 1
                value, records = hit
                log.extend(records)
                return value
        context = dict(app=prog.name,
                       scheme=scheme.value if scheme else None,
                       nprocs=nprocs)
        with obs.span(f"pass.{name}", cat="pipeline", program=prog.name,
                      scheme=context["scheme"], nprocs=nprocs):
            try:
                # The stall fires inside the pass span so the injected
                # delay is booked against this pass in the wall-time
                # ledger (the perf CI job's attribution target).
                faults.maybe_pass_stall(name)
                faults.check("pass", pass_name=name, **context)
                with provenance.capture() as records:
                    value = fn(*args)
            except ReproError:
                raise  # already typed, context attached at the source
            except Exception as exc:
                raise CompileError(
                    f"pass {name!r} failed: {type(exc).__name__}: {exc}",
                    pass_name=name, **context,
                ) from exc
        log.extend(records)
        self._runs[name] += 1
        if memo is not None:
            self._store(key, value, records)
        return value

    def _store(self, key: Tuple, value, records) -> None:
        memo = self._memo
        memo[key] = (value, records)
        memo.move_to_end(key)
        while len(memo) > CACHE_CAPACITY:
            memo.popitem(last=False)

    # -- pipeline operations -----------------------------------------------

    def restructure(self, prog: Program) -> Program:
        """The restructured form of ``prog`` (memoized by content).

        The output is registered as its own fixed point, so
        restructuring an already-restructured program returns it
        unchanged, without mutating any ``Program``.
        """
        fp = fingerprint_program(prog)
        out = self._stage("restructure", (fp,), ProvenanceLog(), prog,
                          None, 1, passes.restructure, prog)
        if out is not prog and self._memo is not None:
            out_fp = fingerprint_program(out)
            if out_fp != fp:
                self._store(("restructure", out_fp), out, [])
        return out

    def compile(
        self,
        prog: Program,
        scheme: Scheme,
        nprocs: int,
        decomp: Optional[Decomposition] = None,
        decomp_nprocs: Optional[int] = None,
    ) -> SpmdProgram:
        """Compile one (program, scheme, nprocs) point.

        ``decomp`` supplies an external decomposition (e.g. from HPF
        directives); its content fingerprint then keys the downstream
        artifacts.  ``decomp_nprocs`` pins the processor count the
        derived decomposition's folding is chosen for (a sweep passes
        its maximum so every point shares one decomposition, matching
        :func:`repro.machine.simulate.speedup_curve`).
        """
        prog.validate()
        fp = fingerprint_program(prog)
        with obs.span("compiler.compile", cat="compiler",
                      program=prog.name, scheme=scheme.value,
                      nprocs=nprocs):
            spmd, log, _ = self._compile(prog, fp, scheme, nprocs, decomp,
                                         decomp_nprocs or nprocs)
        self.last_provenance = log
        return spmd

    def _compile(self, prog: Program, fp: str, scheme: Scheme, nprocs: int,
                 decomp: Optional[Decomposition], decomp_nprocs: int):
        """``(spmd, decision log, decomposition)`` of one point; ``fp``
        is ``prog``'s fingerprint."""
        log = ProvenanceLog()

        def stage(name, key, fn, *args):
            return self._stage(name, key, log, prog, scheme, nprocs,
                               fn, *args)

        rprog = stage("restructure", (fp,), passes.restructure, prog)
        token = "auto"
        if scheme is Scheme.BASE:
            spmd = stage("spmd", (fp, scheme, nprocs, token, decomp_nprocs),
                         passes.spmd, rprog, scheme, nprocs)
            return spmd, log, None
        if decomp is None:
            decomp = stage("decompose", (fp, decomp_nprocs),
                           passes.decompose, rprog, decomp_nprocs)
        else:
            token = fingerprint_decomposition(decomp)
        data = scheme is Scheme.COMP_DECOMP_DATA
        layout = stage("layout", (fp, nprocs, token, decomp_nprocs, data),
                       passes.layout, rprog, decomp, nprocs, data)
        spmd = stage("spmd", (fp, scheme, nprocs, token, decomp_nprocs),
                     passes.spmd, rprog, scheme, nprocs, decomp, layout)
        return spmd, log, decomp

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
            kw.pop("decomp", None)
            spmd = self.compile(prog, Scheme.BASE, nprocs, **kw)
            return spmd, reason

    def compile_all(self, prog: Program, nprocs: int) -> "CompiledProgram":
        """All three Section-6 configurations of one program, sharing
        one restructure and one decomposition."""
        from repro.compiler import CompiledProgram

        prog.validate()
        fp = fingerprint_program(prog)
        with obs.span("compiler.compile_all", cat="compiler",
                      program=prog.name, nprocs=nprocs):
            spmds: Dict[Scheme, SpmdProgram] = {}
            decomps: Dict[Scheme, Decomposition] = {}
            for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                           Scheme.COMP_DECOMP_DATA):
                spmds[scheme], self.last_provenance, decomps[scheme] = (
                    self._compile(prog, fp, scheme, nprocs, None, nprocs))
            return CompiledProgram(
                base=spmds[Scheme.BASE],
                comp_decomp=spmds[Scheme.COMP_DECOMP],
                comp_decomp_data=spmds[Scheme.COMP_DECOMP_DATA],
                decomposition=decomps[Scheme.COMP_DECOMP],
            )

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Stage runs and memo hits by stage name (JSON-ready)."""
        return {"runs": dict(self._runs), "hits": dict(self._hits)}


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
    cold-profile paths to guarantee real stage runs)."""
    session = CompileSession()
    set_session(session)
    return session
