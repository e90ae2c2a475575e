"""The compiler's four stages, one plain function each:

* :func:`restructure` — Section 3.2's unimodular restructuring;
* :func:`decompose` — Section 3's computation/data decomposition;
* :func:`layout` — Section 4's data transformation;
* :func:`spmd` — SPMD code generation.

:class:`~repro.pipeline.session.CompileSession` runs them in this order
and memoizes each artifact.  ``decompose_program`` and ``generate_spmd``
are looked up as this module's globals on every call, so a wrapper
installed here sees every stage run.
"""

from __future__ import annotations

from repro import obs
from repro.codegen.spmd import Scheme, derive_program_layout, generate_spmd
from repro.decomp.folding import grid_shape
from repro.decomp.greedy import decompose_program
from repro.ir.program import Program

__all__ = ["restructure", "decompose", "layout", "spmd"]


def restructure(prog: Program) -> Program:
    """Unimodularly restructure every nest to expose the largest
    outermost parallel band.  Scheme-independent."""
    from repro.analysis.unimodular import expose_outer_parallelism

    nests = []
    with obs.span("compiler.restructure", cat="compiler", program=prog.name):
        for nest in prog.nests:
            with obs.span("unimodular.nest", cat="compiler",
                          nest=nest.name) as sp:
                res = expose_outer_parallelism(nest, prog.params)
                sp.set(
                    transformed=res.nest is not nest,
                    outer_parallel=res.outer_parallel_count,
                )
                nests.append(res.nest)
    return Program(
        name=prog.name,
        arrays=dict(prog.arrays),
        nests=nests,
        params=dict(prog.params),
        time_steps=prog.time_steps,
    )


def decompose(rprog: Program, decomp_nprocs: int):
    """The greedy global decomposition.  Only its folding depends on the
    processor count, so a sweep that pins ``decomp_nprocs`` shares one."""
    return decompose_program(rprog, decomp_nprocs)


def layout(rprog: Program, decomp, nprocs: int, data: bool):
    """Each distributed array's layout: strip-mined and permuted when
    ``data`` (the data-transform scheme), original order otherwise."""
    return derive_program_layout(rprog, decomp,
                                 grid_shape(nprocs, decomp.rank),
                                 restructure=data)


def spmd(rprog: Program, scheme: Scheme, nprocs: int, decomp=None,
         transformed=None):
    """The SPMD plan of one (scheme, nprocs) point.  BASE takes neither
    a decomposition nor layouts."""
    return generate_spmd(rprog, scheme, nprocs, decomp=decomp,
                         transformed=transformed)
