"""C source emission.

Like the SUIF compiler, the pipeline's human-visible output is C: each
phase becomes an SPMD loop nest with per-processor bounds, transformed
arrays are declared as linear arrays (C has no dynamically-sized
multidimensional arrays — Section 4.3), and subscripts are linearized
address expressions.  The emitted code is for inspection and for
diffing against the paper's examples; it is not compiled here (the
machine model replays the equivalent address streams instead).
"""

from __future__ import annotations

from typing import List

from repro.codegen.addrexpr import build_address_expr
from repro.codegen.spmd import OwnerPlan, SpmdProgram, SyncKind
from repro.ir.loops import LoopNest


def _array_decls(spmd: SpmdProgram) -> List[str]:
    out = []
    for name in sorted(spmd.transformed):
        ta = spmd.transformed[name]
        dims = " * ".join(str(d) for d in ta.layout.dims)
        note = ""
        if ta.restructured:
            shape = ", ".join(str(d) for d in ta.layout.dims)
            note = f"  /* restructured: dims ({shape}) */"
        elif ta.replicated:
            note = "  /* replicated per processor */"
        out.append(f"double {name}[{dims}];{note}")
    return out


def _owner_comment(plan: OwnerPlan, nest: LoopNest) -> str:
    if plan.kind == "serial":
        return "/* executed by processor 0 */"
    if plan.kind == "base":
        var = nest.loops[plan.level].var
        return f"/* {var} block-distributed over current range */"
    rows = "; ".join(
        "+".join(
            f"{c}*{v}" for c, v in zip(row, nest.loop_vars) if c
        ) or "0"
        for row in (plan.matrix or [])
    )
    folds = ",".join(repr(f) for f in plan.foldings)
    return f"/* virtual proc = ({rows}) folded ({folds}) */"


def emit_c_program(spmd: SpmdProgram) -> str:
    """Render the SPMD program as annotated C-like source."""
    lines: List[str] = []
    lines.append(f"/* scheme: {spmd.scheme.value}; P = {spmd.nprocs}; "
                 f"grid = {spmd.grid} */")
    lines.extend(_array_decls(spmd))
    lines.append("")
    lines.append("void spmd_main(int myid) {")
    indent = "  "
    for phase in spmd.phases:
        nest = phase.nest
        lines.append(f"{indent}/* nest {nest.name} */")
        for s, st in enumerate(nest.body):
            plan = phase.owners[s]
            lines.append(f"{indent}{_owner_comment(plan, nest)}")
        depth = nest.depth
        for k, loop in enumerate(nest.loops):
            pad = indent * (k + 1)
            lines.append(
                f"{pad}for ({loop.var} = {loop.lower!r}; "
                f"{loop.var} <= {loop.upper!r}; {loop.var}++) {{"
            )
        pad = indent * (depth + 1)
        for st in nest.body:
            ta = spmd.transformed[st.write.array.name]
            waddr = build_address_expr(ta.layout, st.write.index_exprs)
            reads = []
            for r in st.reads:
                rta = spmd.transformed[r.array.name]
                raddr = build_address_expr(rta.layout, r.index_exprs)
                reads.append(f"{r.array.name}[{raddr.to_c()}]")
            rhs = ", ".join(reads) or "0.0"
            lines.append(
                f"{pad}{st.write.array.name}[{waddr.to_c()}] = f({rhs});"
            )
        for k in range(depth, 0, -1):
            lines.append(f"{indent * k}}}")
        if phase.sync_after is SyncKind.BARRIER:
            lines.append(f"{indent}barrier();")
        elif phase.sync_after is SyncKind.NEIGHBOR:
            lines.append(f"{indent}neighbor_sync();")
        elif phase.sync_after is SyncKind.PIPELINE:
            lines.append(f"{indent}/* doacross pipeline: pairwise sync */")
        lines.append("")
    lines.append("}")
    return "\n".join(lines)
