"""The integrated compiler driver.

Mirrors the three configurations measured in Section 6:

* :data:`Scheme.BASE` — the traditional per-nest parallelizer
  (unimodular restructuring, outermost parallel loop, block scheduling,
  barrier after every parallel loop, FORTRAN layouts);
* :data:`Scheme.COMP_DECOMP` — Section 3's global computation/data
  decomposition (synchronization optimized away where locality is
  proven; pipelining where parallelism needs it), original layouts;
* :data:`Scheme.COMP_DECOMP_DATA` — additionally restructures every
  distributed array with Section 4's strip-mine + permute algorithm so
  each processor's data are contiguous.

The staging lives in :mod:`repro.pipeline`: a
:class:`~repro.pipeline.session.CompileSession` runs the four stages
(restructure → decompose → layout → spmd) and memoizes their artifacts
by program content.  The functions here are thin wrappers over the
process-wide default session; construct your own session for
isolation.

``compile_program`` produces the SPMD plan the machine model replays;
``emit_c_program`` (re-exported) renders it as C-like source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codegen.emit_c import emit_c_program
from repro.codegen.spmd import Scheme, SpmdProgram
from repro.decomp.model import Decomposition
from repro.ir.program import Program
from repro.pipeline.session import get_session

__all__ = [
    "Scheme",
    "compile_program",
    "compile_all",
    "restructure_program",
    "emit_c_program",
    "CompiledProgram",
]


def restructure_program(prog: Program) -> Program:
    """The Section 3.2 preprocessing step, applied program-wide: each
    nest is unimodularly restructured to expose the largest outermost
    parallel band (and, as a consequence, stride-1 inner loops for
    column-major arrays).  Every compiler configuration — including
    BASE — starts from this form, as in the paper.

    Memoized by program *content* in the default session (the result
    of restructuring a program twice — or restructuring an
    already-restructured program — is the same object); the input
    program is never mutated.
    """
    return get_session().restructure(prog)


def compile_program(
    prog: Program,
    scheme: Scheme,
    nprocs: int,
    decomp: Optional[Decomposition] = None,
) -> SpmdProgram:
    """Compile one program under one configuration.

    A precomputed decomposition may be supplied (e.g. from HPF
    directives via :mod:`repro.decomp.hpf`); otherwise the greedy
    algorithm runs (or its cached artifact is reused).
    """
    return get_session().compile(prog, scheme, nprocs, decomp=decomp)


@dataclass
class CompiledProgram:
    """All three configurations of one program, for the experiment
    harness."""

    base: SpmdProgram
    comp_decomp: SpmdProgram
    comp_decomp_data: SpmdProgram
    decomposition: Decomposition

    def by_scheme(self, scheme: Scheme) -> SpmdProgram:
        return {
            Scheme.BASE: self.base,
            Scheme.COMP_DECOMP: self.comp_decomp,
            Scheme.COMP_DECOMP_DATA: self.comp_decomp_data,
        }[scheme]


def compile_all(prog: Program, nprocs: int) -> CompiledProgram:
    """Compile a program under all three Section-6 configurations."""
    return get_session().compile_all(prog, nprocs)
