"""Virtual-to-physical folding selection (Section 3.2, step 3).

Default BLOCK.  CYCLIC when the computation per iteration of the
distributed loop grows or shrinks monotonically with the iteration
number — detected structurally as triangular bounds coupling the mapped
loop with another loop of the same nest (as in LU).  BLOCK-CYCLIC is
reserved for pipelined nests where load balance is *also* an issue; the
paper's suite never needs it, but :func:`choose_folding` accepts a
``prefer_block_cyclic`` override so the ablation benches can force it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs import provenance
from repro.decomp.model import Decomposition, Folding, FoldKind
from repro.ir.loops import LoopNest
from repro.ir.program import Program


def _triangular_levels(nest: LoopNest) -> set:
    """Levels involved in triangular bound coupling: a level whose bound
    references another loop var, or whose var appears in another loop's
    bound."""
    out = set()
    vars_ = list(nest.loop_vars)
    for k, loop in enumerate(nest.loops):
        for e in (loop.lower, loop.upper):
            for v in e.variables:
                if v in vars_:
                    out.add(k)
                    out.add(vars_.index(v))
    return out


def choose_folding(
    prog: Program,
    decomp: Decomposition,
    nprocs: int,
    prefer_block_cyclic: bool = False,
    block_cyclic_block: int = 4,
) -> List[Folding]:
    """Pick a folding per virtual processor dimension."""
    rank = decomp.rank
    foldings: List[Folding] = []
    for p in range(rank):
        kind = FoldKind.BLOCK
        triggers: List[str] = []
        for nest in prog.nests:
            tri = _triangular_levels(nest)
            for s in range(len(nest.body)):
                cd = decomp.comp_for(nest.name, s)
                if cd is None or p >= len(cd.matrix):
                    continue
                row = cd.matrix[p]
                mapped_levels = {k for k, c in enumerate(row) if c != 0}
                if mapped_levels & tri:
                    triggers.append(nest.name)
                    if prefer_block_cyclic and decomp.is_pipelined(nest.name):
                        kind = FoldKind.BLOCK_CYCLIC
                    else:
                        kind = FoldKind.CYCLIC
        if kind is FoldKind.BLOCK_CYCLIC:
            foldings.append(Folding(kind, block_cyclic_block))
        else:
            foldings.append(Folding(kind))
        if kind is FoldKind.BLOCK_CYCLIC:
            reason = "pipelined nest prefers block-cyclic"
        elif kind is FoldKind.CYCLIC:
            reason = "triangular bounds couple mapped levels"
        else:
            reason = "default block"
        provenance.record(
            "decomp.folding", stage="folding", subject=f"dim{p}",
            chosen=kind.value,
            alternatives=[k.value for k in FoldKind],
            reason=reason, nprocs=nprocs,
            triggers=sorted(set(triggers)),
        )
    return foldings


def grid_shape(nprocs: int, rank: int) -> Tuple[int, ...]:
    """Factor ``nprocs`` into a near-square processor grid of the given
    rank (rank 0 -> empty grid, meaning all work on processor 0)."""
    if rank <= 0:
        return ()
    if rank == 1:
        return (nprocs,)
    if rank == 2:
        best = (1, nprocs)
        for a in range(1, int(nprocs ** 0.5) + 1):
            if nprocs % a == 0:
                best = (nprocs // a, a)
        # Return (larger, smaller): distribute the first virtual dim over
        # more processors, like the paper's P1 x P2 annotations.
        return best
    # rank > 2: peel near-equal factors (not used by the paper's suite).
    out = []
    remaining = nprocs
    for k in range(rank - 1):
        f = max(1, round(remaining ** (1.0 / (rank - k))))
        while remaining % f:
            f -= 1
        out.append(f)
        remaining //= f
    out.append(remaining)
    return tuple(sorted(out, reverse=True))


def fold_owner(
    virtual: Sequence[int],
    extents: Sequence[int],
    foldings: Sequence[Folding],
    grid: Sequence[int],
) -> Tuple[int, ...]:
    """Physical grid coordinates owning a virtual processor point."""
    coords = []
    for v, ext, fold, g in zip(virtual, extents, foldings, grid):
        coords.append(fold.owner(int(v), int(ext), int(g)))
    return tuple(coords)


def linearize_grid(coords: Sequence[int], grid: Sequence[int]) -> int:
    """Flatten grid coordinates into a single processor id.

    Column-major (first coordinate fastest), matching the FORTRAN/SPMD
    convention of numbering the first processor-grid dimension
    consecutively; which grid neighbours share a DASH cluster follows
    from this choice.
    """
    pid = 0
    for c, g in zip(reversed(list(coords)), reversed(list(grid))):
        pid = pid * g + c
    return pid
