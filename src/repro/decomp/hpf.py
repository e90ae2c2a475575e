"""HPF-notation front end and rendering.

The paper notes its decomposition model is a superset of HPF and uses
HPF notation throughout ("as the HPF notation is more familiar").  This
module renders :class:`DataDecomp` objects in DISTRIBUTE syntax, parses
DISTRIBUTE strings (so HPF directives can drive the data-transformation
phase directly, per Section 7), and maps distributions through ALIGN
statements (offsets ignored, per Section 4.2).
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.decomp.model import DataDecomp, Folding, FoldKind
from repro.util.intlinalg import mat_mul


def distribute_string(
    decomp: DataDecomp, foldings: Sequence[Folding]
) -> str:
    """Render a single-dim-per-processor decomposition as HPF, e.g.
    ``(*, CYCLIC)`` for a column-cyclic 2-D array."""
    if decomp.replicated:
        return "REPLICATED"
    arank = len(decomp.matrix[0]) if decomp.matrix else 0
    slots = ["*"] * arank
    for p, adim in decomp.distributed_dims():
        fold = foldings[p] if p < len(foldings) else Folding(FoldKind.BLOCK)
        if fold.kind is FoldKind.BLOCK_CYCLIC:
            slots[adim] = f"CYCLIC({fold.block})"
        else:
            slots[adim] = fold.kind.value
    return "(" + ", ".join(slots) + ")"


_DIST_RE = re.compile(
    r"^\s*(BLOCK|CYCLIC(\(\s*\d+\s*\))?|\*)\s*$", re.IGNORECASE
)


def parse_distribute(
    text: str, array: str, arank: Optional[int] = None
) -> Tuple[DataDecomp, List[Folding]]:
    """Parse ``"(BLOCK, *)"`` into a :class:`DataDecomp` plus foldings.

    Distributed dimensions become successive virtual processor
    dimensions in array-dimension order.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    slots = [s.strip() for s in body.split(",")]
    if arank is not None and len(slots) != arank:
        raise ValueError(
            f"{array}: DISTRIBUTE has {len(slots)} slots, rank is {arank}"
        )
    matrix: List[List[int]] = []
    foldings: List[Folding] = []
    for adim, slot in enumerate(slots):
        m = _DIST_RE.match(slot)
        if not m:
            raise ValueError(f"bad DISTRIBUTE slot: {slot!r}")
        up = slot.upper()
        if up == "*":
            continue
        row = [0] * len(slots)
        row[adim] = 1
        matrix.append(row)
        if up == "BLOCK":
            foldings.append(Folding(FoldKind.BLOCK))
        elif up == "CYCLIC":
            foldings.append(Folding(FoldKind.CYCLIC))
        else:
            b = int(re.search(r"\d+", up).group())
            foldings.append(Folding(FoldKind.BLOCK_CYCLIC, b))
    decomp = DataDecomp(
        array=array, matrix=matrix, offset=[0] * len(matrix)
    )
    return decomp, foldings


def apply_alignment(
    template: DataDecomp,
    align_matrix: Sequence[Sequence[int]],
    array: str,
) -> DataDecomp:
    """Map a template's distribution back to an aligned array.

    ``align_matrix`` (template_rank x array_rank) is the linear part of
    the HPF ALIGN function taking array indices to template indices; the
    array's decomposition is the composition ``D_template @ A``.  Any
    alignment offsets are ignored, as in the paper.
    """
    if template.replicated:
        arank = len(align_matrix[0]) if align_matrix else 0
        return DataDecomp(
            array=array,
            matrix=[[0] * arank for _ in template.matrix],
            offset=list(template.offset),
            replicated=True,
        )
    mat = mat_mul([list(r) for r in template.matrix],
                  [list(r) for r in align_matrix])
    return DataDecomp(
        array=array, matrix=mat, offset=list(template.offset)
    )
