"""The Section 4.2 layout-derivation algorithm.

For each distributed dimension of an array:

* BLOCK — strip-mine with strip ``ceil(d / P)``; the *second* (outer)
  strip dimension identifies the processor;
* CYCLIC — strip-mine with strip ``P``; the *first* (inner) dimension
  identifies the processor;
* BLOCK-CYCLIC(b) — strip-mine by ``b`` then strip-mine the outer part
  by ``P``; the *middle* dimension identifies the processor;

then permute every processor-identifying dimension to the rightmost
(slowest-varying) positions, leaving all other dimensions in their
original relative order.  Local optimization: when the array's highest
dimension is BLOCK-distributed, its processor dimension is already
rightmost, so neither strip-mining nor permutation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.obs import provenance
from repro.datatrans.layout import DimAtom, Layout
from repro.decomp.model import DataDecomp, Folding, FoldKind
from repro.ir.arrays import ArrayDecl


@dataclass(frozen=True)
class OwnerSpec:
    """How to compute the owning processor (along one grid dimension)
    from an original array index: ``((x[src] // div) % mod)``, clamped
    to the grid size for padded BLOCK strips."""

    proc_dim: int
    src: int
    div: int
    mod: Optional[int]
    nproc: int

    def owner(self, x: int) -> int:
        v = x // self.div
        if self.mod is not None:
            v %= self.mod
        return min(v, self.nproc - 1)

    def owner_vec(self, x):
        import numpy as np

        v = np.asarray(x) // self.div
        if self.mod is not None:
            v = v % self.mod
        return np.minimum(v, self.nproc - 1)


@dataclass
class TransformedArray:
    """An array together with its (possibly restructured) layout."""

    decl: ArrayDecl
    layout: Layout
    owner_specs: Tuple[OwnerSpec, ...]
    restructured: bool
    replicated: bool = False

    @property
    def size(self) -> int:
        return self.layout.size

    @property
    def nbytes(self) -> int:
        return self.layout.size * self.decl.element_size

    def owner_coords(self, index: Sequence[int]) -> Tuple[int, ...]:
        """Grid coordinates (ordered by processor dimension) owning an
        element; empty for replicated/undistributed arrays."""
        return tuple(s.owner(index[s.src]) for s in self.owner_specs)

    def address(self, index: Sequence[int]) -> int:
        """Element offset of an original index in the new layout."""
        return self.layout.linearize(index)


def identity_transform(decl: ArrayDecl) -> TransformedArray:
    """The no-op transform: original column-major layout, no owners."""
    return TransformedArray(
        decl=decl,
        layout=Layout.identity(decl.dims),
        owner_specs=(),
        restructured=False,
    )


def derive_layout(
    decl: ArrayDecl,
    decomp: Optional[DataDecomp],
    foldings: Sequence[Folding],
    grid: Sequence[int],
    restructure: bool = True,
    line_pad_elements: Optional[int] = None,
) -> TransformedArray:
    """Apply the Section 4.2 algorithm to one array.

    ``restructure=False`` computes the owner information only (this is
    what the COMP-DECOMP-only configuration uses: decompositions chosen,
    layouts left in FORTRAN order).

    ``line_pad_elements`` optionally pads each processor's contiguous
    partition to a multiple of that many elements (one cache line),
    eliminating residual false sharing at partition boundaries — the
    padding technique of Jeremiassen & Eggers discussed in the paper's
    related work, offered here as an extension.
    """
    out = _derive_impl(
        decl, decomp, foldings, grid, restructure, line_pad_elements
    )
    if provenance.active():
        if decomp is None or not decomp.matrix:
            chosen, reason = "identity", "undistributed"
        elif decomp.replicated:
            chosen, reason = "identity", "replicated"
        elif not restructure:
            chosen, reason = "identity", "comp-decomp only"
        elif out.restructured:
            chosen, reason = "strip-mine+permute", "strip-mine + permute"
        elif all(
            (grid[p] if p < len(grid) else 1) <= 1
            for p, _ in decomp.distributed_dims()
        ):
            chosen, reason = "identity", "single processor along mapped dims"
        else:
            chosen, reason = "identity", "local optimization"
        provenance.record(
            "datatrans.layout", stage="layout", subject=decl.name,
            chosen=chosen, alternatives=["identity", "strip-mine+permute"],
            reason=reason, grid=list(grid), dims=list(decl.dims),
            atoms=[
                f"x{a.src}//{a.div}"
                + (f"%{a.mod}" if a.mod is not None else "")
                + f":{a.extent}"
                for a in out.layout.atoms
            ],
            strips=[
                f"dim{s.src}->P{s.proc_dim} div={s.div} mod={s.mod}"
                for s in out.owner_specs
            ],
            line_pad_elements=line_pad_elements,
        )
    return out


def _derive_impl(
    decl: ArrayDecl,
    decomp: Optional[DataDecomp],
    foldings: Sequence[Folding],
    grid: Sequence[int],
    restructure: bool = True,
    line_pad_elements: Optional[int] = None,
) -> TransformedArray:
    if decomp is None or decomp.replicated or not decomp.matrix:
        out = identity_transform(decl)
        out.replicated = bool(decomp and decomp.replicated)
        return out

    dd = decomp.distributed_dims()  # (proc_dim, array_dim) pairs
    owner_specs: List[OwnerSpec] = []
    # (atom, role): role None = data, else the processor grid dimension.
    atoms_roles: List[Tuple[DimAtom, Optional[int]]] = [
        (DimAtom(src=k, extent=d), None) for k, d in enumerate(decl.dims)
    ]
    any_restructured = False

    for p, k in sorted(dd, key=lambda t: t[1]):
        nproc = grid[p] if p < len(grid) else 1
        fold = foldings[p] if p < len(foldings) else Folding(FoldKind.BLOCK)
        d = decl.dims[k]
        if fold.kind is FoldKind.BLOCK:
            b = -(-d // nproc)
            owner_specs.append(OwnerSpec(p, k, div=b, mod=None, nproc=nproc))
        elif fold.kind is FoldKind.CYCLIC:
            owner_specs.append(OwnerSpec(p, k, div=1, mod=nproc, nproc=nproc))
        else:
            owner_specs.append(
                OwnerSpec(p, k, div=fold.block, mod=nproc, nproc=nproc)
            )
        if not restructure or nproc <= 1:
            continue
        # Local optimization: highest dimension distributed BLOCK is
        # already rightmost — no strip-mine, no permutation.
        if fold.kind is FoldKind.BLOCK and k == decl.rank - 1:
            continue
        # Locate the original atom for dimension k.
        pos = next(
            i for i, (a, _) in enumerate(atoms_roles) if a.src == k
        )
        if fold.kind is FoldKind.BLOCK:
            b = -(-d // nproc)
            inner = DimAtom(src=k, extent=b, div=1, mod=b)
            outer = DimAtom(src=k, extent=-(-d // b), div=b, mod=None)
            atoms_roles[pos : pos + 1] = [(inner, None), (outer, p)]
        elif fold.kind is FoldKind.CYCLIC:
            inner = DimAtom(src=k, extent=nproc, div=1, mod=nproc)
            outer = DimAtom(src=k, extent=-(-d // nproc), div=nproc, mod=None)
            atoms_roles[pos : pos + 1] = [(inner, p), (outer, None)]
        else:
            b = fold.block
            first = DimAtom(src=k, extent=b, div=1, mod=b)
            mid = DimAtom(src=k, extent=nproc, div=b, mod=nproc)
            outer = DimAtom(
                src=k, extent=-(-d // (b * nproc)), div=b * nproc, mod=None
            )
            atoms_roles[pos : pos + 1] = [(first, None), (mid, p), (outer, None)]
        any_restructured = True

    if any_restructured:
        data_atoms = [a for a, r in atoms_roles if r is None]
        proc_atoms = sorted(
            ((a, r) for a, r in atoms_roles if r is not None),
            key=lambda t: t[1],
        )
        if line_pad_elements and line_pad_elements > 1 and data_atoms:
            # Pad the slowest data atom so the per-processor partition
            # (the product of data-atom extents) is line-aligned.
            part = 1
            for a in data_atoms:
                part *= a.extent
            inner = part // data_atoms[-1].extent
            ext = data_atoms[-1].extent
            while (inner * ext) % line_pad_elements:
                ext += 1
            if ext != data_atoms[-1].extent:
                old = data_atoms[-1]
                data_atoms[-1] = DimAtom(
                    src=old.src, extent=ext, div=old.div, mod=old.mod
                )
                any_restructured = True
        atoms = tuple(data_atoms + [a for a, _ in proc_atoms])
    else:
        atoms = tuple(a for a, _ in atoms_roles)

    layout = Layout(orig_dims=decl.dims, atoms=atoms)
    owner_specs.sort(key=lambda s: s.proc_dim)
    return TransformedArray(
        decl=decl,
        layout=layout,
        owner_specs=tuple(owner_specs),
        restructured=any_restructured,
    )
