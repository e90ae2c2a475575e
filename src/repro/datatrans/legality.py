"""Legality checks for data transformations (Section 4.1.3).

Unlike loop transforms, data transforms carry no ordering constraints —
but they are global: every access to the array, program-wide, must be
rewritten to the new layout.  The paper lists the language features that
defeat this (FORTRAN COMMON-block re-use as differently-shaped data, C
pointer arithmetic and casts).  Our IR cannot express those, so the
checks here verify the conditions the rest of the pipeline relies on:

* every reference uses the declared rank (no linearized or reshaped
  accesses),
* the decomposition maps at most one array dimension per processor
  dimension (the paper's Section 4.2 implementation restriction),
* the derived layout is a bijection on the original index space.
"""

from __future__ import annotations

from typing import List, Optional

from repro.datatrans.layout import Layout
from repro.decomp.model import DataDecomp
from repro.errors import LegalityError
from repro.ir.program import Program

__all__ = ["LegalityError", "assert_bijective", "check_transformable"]


def check_transformable(
    prog: Program, array: str, decomp: Optional[DataDecomp] = None
) -> List[str]:
    """Return a list of diagnostics (empty = transformable)."""
    problems: List[str] = []
    decl = prog.arrays.get(array)
    if decl is None:
        return [f"array {array} is not declared"]
    for nest in prog.nests:
        for st in nest.body:
            for ref in st.all_refs():
                if ref.array.name != array:
                    continue
                if len(ref.index_exprs) != decl.rank:
                    problems.append(
                        f"{nest.name}: reference {ref!r} reshapes {array}"
                    )
    if decomp is not None and not decomp.replicated and decomp.matrix:
        try:
            decomp.distributed_dims()
        except ValueError as e:
            problems.append(str(e))
    return problems


def assert_bijective(layout: Layout, array: str) -> None:
    """Raise LegalityError unless the layout maps distinct elements to
    distinct addresses."""
    if not layout.is_bijective():
        raise LegalityError(
            f"{array}: derived layout is not a bijection on the index space"
        )
