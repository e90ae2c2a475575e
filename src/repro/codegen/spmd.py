"""SPMD program generation.

A :class:`SpmdProgram` packages everything the machine model needs to
replay a compiled program on P processors:

* per-nest *phases* in program order, each with a per-statement owner
  specification (how iterations map to physical processors),
* the transformed (or original) layout of every array,
* the synchronization required after each phase (barrier, nothing,
  neighbour sync, or pipelined point-to-point),

for each of the paper's three compiler configurations:

* ``BASE`` — each nest parallelized independently at its outermost
  parallel level (after unimodular restructuring), BLOCK distribution of
  the *current* loop range, FORTRAN layouts, barrier after every
  parallel loop execution;
* ``COMP_DECOMP`` — the global decomposition drives iteration
  ownership; layouts unchanged; barriers eliminated where the
  decomposition proves every read local (replaced by cheap
  producer-consumer synchronization for pipelined nests);
* ``COMP_DECOMP_DATA`` — as above, plus restructured array layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs import provenance
from repro.analysis.unimodular import expose_outer_parallelism
from repro.datatrans.transform import (
    TransformedArray,
    derive_layout,
    identity_transform,
)
from repro.decomp.folding import grid_shape
from repro.decomp.model import Decomposition, Folding, FoldKind
from repro.ir.loops import LoopNest
from repro.ir.program import Program


class Scheme(Enum):
    BASE = "base"
    COMP_DECOMP = "comp decomp"
    COMP_DECOMP_DATA = "comp decomp + data transform"


#: Canonical short name per scheme (stable CLI/report vocabulary).
SCHEME_NAMES: Dict[str, "Scheme"] = {}  # populated below

#: Every accepted spelling (short names, identifier-style long names,
#: and the enum values themselves) → scheme.
SCHEME_ALIASES: Dict[str, "Scheme"] = {}

SCHEME_NAMES.update({
    "base": Scheme.BASE,
    "comp": Scheme.COMP_DECOMP,
    "data": Scheme.COMP_DECOMP_DATA,
})
SCHEME_ALIASES.update(SCHEME_NAMES)
SCHEME_ALIASES.update({
    "comp_decomp": Scheme.COMP_DECOMP,
    "comp_decomp_data": Scheme.COMP_DECOMP_DATA,
    # The paper's fully-optimized configuration (Section 6 "OPT").
    "opt": Scheme.COMP_DECOMP_DATA,
    Scheme.BASE.value: Scheme.BASE,
    Scheme.COMP_DECOMP.value: Scheme.COMP_DECOMP,
    Scheme.COMP_DECOMP_DATA.value: Scheme.COMP_DECOMP_DATA,
})


def parse_scheme(name) -> "Scheme":
    """Resolve any accepted scheme spelling (or a Scheme) to a Scheme."""
    if isinstance(name, Scheme):
        return name
    try:
        return SCHEME_ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; accepted: "
            f"{', '.join(sorted(SCHEME_ALIASES))}"
        ) from None


def scheme_short_name(scheme: "Scheme") -> str:
    """The canonical short name of a scheme (inverse of SCHEME_NAMES)."""
    for short, s in SCHEME_NAMES.items():
        if s is scheme:
            return short
    raise ValueError(f"no short name for {scheme!r}")  # pragma: no cover


class SyncKind(Enum):
    BARRIER = "barrier"
    NONE = "none"
    NEIGHBOR = "neighbor"
    PIPELINE = "pipeline"


@dataclass
class OwnerPlan:
    """How one statement's iterations map to processors.

    ``kind='base'``: BLOCK partition of the current range of loop
    ``level`` (renormalized per execution, like a self-scheduling
    traditional parallelizer).

    ``kind='affine'``: virtual processor = ``matrix @ i`` folded per
    dimension onto the processor grid.

    ``kind='serial'``: everything on processor 0.
    """

    kind: str
    level: int = 0
    matrix: Optional[List[List[int]]] = None
    foldings: Tuple[Folding, ...] = ()
    extents: Tuple[int, ...] = ()  # virtual extents per processor dim

    def owner_at(
        self,
        env: Mapping[str, int],
        nest: "LoopNest",
        params: Mapping[str, int],
        nprocs: int,
        grid: Sequence[int],
    ) -> int:
        """Owning processor of one statement instance under a concrete
        loop-variable binding ``env`` (which must also bind any outer
        variables the bounds reference).  This is the scalar twin of the
        vectorized owner computation in :mod:`repro.machine.trace`; the
        verification oracle executes through it.
        """
        if self.kind == "serial" or nprocs == 1:
            return 0
        if self.kind == "base":
            loop = nest.loops[self.level]
            lo = loop.lower.eval(env)
            hi = loop.upper.eval(env)
            span = max(hi - lo + 1, 1)
            v = env[loop.var]
            return min(max((v - lo) * nprocs // span, 0), nprocs - 1)
        pid = 0
        for dim in range(len(self.matrix) - 1, -1, -1):
            row = self.matrix[dim]
            virt = 0
            for c, var in zip(row, nest.loop_vars):
                if c:
                    virt += c * env[var]
            fold = self.foldings[dim]
            g = grid[dim] if dim < len(grid) else 1
            ext = self.extents[dim] if dim < len(self.extents) else 1
            if fold.kind is FoldKind.BLOCK:
                b = max(1, -(-ext // g))
                coord = min(virt // b, g - 1)
            elif fold.kind is FoldKind.CYCLIC:
                coord = virt % g
            else:
                coord = (virt // fold.block) % g
            pid = pid * g + coord
        return pid


@dataclass
class SpmdPhase:
    """One loop nest's parallel execution."""

    nest: LoopNest
    owners: List[OwnerPlan]  # per statement
    sync_after: SyncKind
    pipelined: bool = False
    barriers_per_execution: int = 1
    all_reads_local: bool = True
    seq_steps: int = 1
    """For pipelined phases: trip count of the sequential (carried)
    levels, i.e. the number of doacross steps available for tiling."""


@dataclass
class SpmdProgram:
    program: Program
    scheme: Scheme
    nprocs: int
    grid: Tuple[int, ...]
    transformed: Dict[str, TransformedArray]
    phases: List[SpmdPhase]
    decomposition: Optional[Decomposition] = None


# ---------------------------------------------------------------------------

def _virtual_extents(
    nest: LoopNest, matrix: Sequence[Sequence[int]], params: Mapping[str, int]
) -> Tuple[int, ...]:
    """Conservative extent of each virtual processor coordinate, used by
    BLOCK folding to size strips."""
    bounds = nest.numeric_bounds(params)
    out = []
    for row in matrix:
        lo = hi = 0
        for c, (blo, bhi) in zip(row, bounds):
            if c >= 0:
                lo += c * blo
                hi += c * bhi
            else:
                lo += c * bhi
                hi += c * blo
        out.append(max(1, hi - lo + 1))
    return tuple(out)


def _reads_local(
    nest: LoopNest, decomp: Decomposition, params: Mapping[str, int]
) -> bool:
    """True when Equation 1 holds *exactly* (linear parts and offsets)
    for every reference of the nest under the final decomposition, so no
    synchronization-worthy communication remains."""
    from repro.util.intlinalg import mat_mul, mat_vec

    for s, st in enumerate(nest.body):
        cd = decomp.comp_for(nest.name, s)
        if cd is None:
            return False
        depth = st.depth if st.depth is not None else nest.depth
        loop_vars = nest.loop_vars[:depth]
        for ref in st.all_refs():
            dd = decomp.data_for(ref.array.name)
            if dd is None:
                return False
            if dd.replicated or not dd.matrix:
                continue
            af = ref.access_function(loop_vars)
            f = [list(r) for r in af.matrix]
            df = mat_mul(dd.matrix, f)
            if df != [row[:depth] for row in cd.matrix]:
                return False
            offsets = [e.eval(params) for e in af.offset]
            if any(v != 0 for v in mat_vec(dd.matrix, offsets)):
                return False
    return True


def _barriers_per_execution(
    nest: LoopNest, parallel_level: int, params: Mapping[str, int]
) -> int:
    """Number of barrier episodes per nest execution when the parallel
    loop sits below ``parallel_level`` sequential loops (one barrier per
    execution of the parallel loop)."""
    if parallel_level <= 0:
        return 1
    outer = LoopNest(name=nest.name, loops=nest.loops[:parallel_level], body=[])
    return max(1, outer.count_iterations(params))


def derive_program_layout(
    prog: Program,
    decomp: Decomposition,
    grid: Tuple[int, ...],
    restructure: bool,
    line_pad_elements: Optional[int] = None,
) -> Dict[str, TransformedArray]:
    """Derive every array's (possibly restructured) layout under a
    decomposition — the pipeline's standalone layout pass.

    An array whose decomposition falls outside the data-transform
    restriction (e.g. a hand-supplied general affine mapping) keeps its
    original layout rather than failing.
    """
    transformed: Dict[str, TransformedArray] = {}
    for name, decl in prog.arrays.items():
        try:
            transformed[name] = derive_layout(
                decl,
                decomp.data_for(name),
                decomp.foldings,
                grid,
                restructure=restructure,
                line_pad_elements=line_pad_elements,
            )
        except ValueError as exc:
            provenance.record(
                "datatrans.legality", stage="layout", subject=name,
                chosen="identity",
                alternatives=["strip-mine+permute", "identity"],
                reason="legality rejection", error=str(exc),
            )
            transformed[name] = identity_transform(decl)
    return transformed


def generate_spmd(
    prog: Program,
    scheme: Scheme,
    nprocs: int,
    decomp: Optional[Decomposition] = None,
    line_pad_elements: Optional[int] = None,
    transformed: Optional[Dict[str, TransformedArray]] = None,
) -> SpmdProgram:
    """Build the SPMD execution plan for one compiler configuration.

    ``line_pad_elements`` (data scheme only) pads each restructured
    partition to a cache-line multiple; see
    :func:`repro.datatrans.transform.derive_layout`.  ``transformed``
    optionally supplies precomputed layouts (the pipeline's layout-pass
    artifact); when omitted they are derived here.
    """
    with obs.span("codegen.spmd", cat="codegen", program=prog.name,
                  scheme=scheme.value, nprocs=nprocs) as sp:
        out = _generate_impl(prog, scheme, nprocs, decomp,
                             line_pad_elements, transformed)
        sp.set(phases=len(out.phases), grid=list(out.grid))
        return out


def _generate_impl(
    prog: Program,
    scheme: Scheme,
    nprocs: int,
    decomp: Optional[Decomposition] = None,
    line_pad_elements: Optional[int] = None,
    transformed: Optional[Dict[str, TransformedArray]] = None,
) -> SpmdProgram:
    params = prog.params

    if scheme is Scheme.BASE:
        phases: List[SpmdPhase] = []
        if transformed is None:
            transformed = {
                name: identity_transform(decl)
                for name, decl in prog.arrays.items()
            }
        for nest in prog.nests:
            res = expose_outer_parallelism(nest, params)
            n = res.nest
            level = None
            for k in range(n.depth):
                if k in res.parallel:
                    level = k
                    break
                # levels before the first parallel one stay sequential
            if level is None:
                owners = [OwnerPlan(kind="serial") for _ in n.body]
                phases.append(
                    SpmdPhase(
                        nest=n,
                        owners=owners,
                        sync_after=SyncKind.BARRIER,
                        barriers_per_execution=1,
                    )
                )
                continue
            owners = []
            for st in n.body:
                depth = st.depth if st.depth is not None else n.depth
                if level < depth:
                    owners.append(OwnerPlan(kind="base", level=level))
                else:
                    owners.append(OwnerPlan(kind="serial"))
            barriers = _barriers_per_execution(n, level, params)
            phases.append(
                SpmdPhase(
                    nest=n,
                    owners=owners,
                    sync_after=SyncKind.BARRIER,
                    barriers_per_execution=barriers,
                )
            )
        return SpmdProgram(
            program=prog,
            scheme=scheme,
            nprocs=nprocs,
            grid=(nprocs,),
            transformed=transformed,
            phases=phases,
        )

    if decomp is None:
        raise ValueError(f"{scheme} requires a decomposition")
    grid = grid_shape(nprocs, decomp.rank)
    restructure = scheme is Scheme.COMP_DECOMP_DATA
    if transformed is None:
        transformed = derive_program_layout(
            prog, decomp, grid,
            restructure=restructure,
            line_pad_elements=line_pad_elements if restructure else None,
        )

    phases = []
    for nest in prog.nests:
        owners = []
        serial = True
        for s, st in enumerate(nest.body):
            cd = decomp.comp_for(nest.name, s)
            if cd is None or not cd.matrix or all(
                all(c == 0 for c in row) for row in cd.matrix
            ):
                owners.append(OwnerPlan(kind="serial"))
                continue
            serial = False
            owners.append(
                OwnerPlan(
                    kind="affine",
                    matrix=[list(r) for r in cd.matrix],
                    foldings=tuple(decomp.foldings),
                    extents=_virtual_extents(
                        LoopNest(
                            name=nest.name,
                            loops=nest.loops[
                                : (st.depth if st.depth is not None
                                   else nest.depth)
                            ],
                            body=[],
                        ),
                        cd.matrix,
                        params,
                    ),
                )
            )
        pipelined = decomp.is_pipelined(nest.name)
        local = _reads_local(nest, decomp, params)
        if pipelined:
            sync = SyncKind.PIPELINE
        elif local:
            sync = SyncKind.NONE
        elif serial:
            sync = SyncKind.BARRIER
        else:
            sync = SyncKind.NEIGHBOR if _nearly_local(nest, decomp) else SyncKind.BARRIER
        # Sequential (unmapped) levels give the doacross step count.
        mapped_levels = set()
        for plan in owners:
            if plan.matrix:
                for row in plan.matrix:
                    mapped_levels |= {k for k, c in enumerate(row) if c}
        seq_steps = 1
        if pipelined:
            bounds = nest.numeric_bounds(params)
            for k, (lo, hi) in enumerate(bounds):
                if k not in mapped_levels:
                    seq_steps *= max(1, hi - lo + 1)
        phases.append(
            SpmdPhase(
                nest=nest,
                owners=owners,
                sync_after=sync,
                pipelined=pipelined,
                barriers_per_execution=1,
                all_reads_local=local,
                seq_steps=seq_steps,
            )
        )
    return SpmdProgram(
        program=prog,
        scheme=scheme,
        nprocs=nprocs,
        grid=grid,
        transformed=transformed,
        phases=phases,
        decomposition=decomp,
    )


def _nearly_local(nest: LoopNest, decomp: Decomposition) -> bool:
    """True when every read is local up to a constant offset (boundary
    exchange with a fixed set of neighbours): the linear parts match
    even though the offsets differ."""
    from repro.util.intlinalg import mat_mul

    for s, st in enumerate(nest.body):
        cd = decomp.comp_for(nest.name, s)
        if cd is None:
            return False
        depth = st.depth if st.depth is not None else nest.depth
        loop_vars = nest.loop_vars[:depth]
        for ref in st.all_refs():
            dd = decomp.data_for(ref.array.name)
            if dd is None:
                return False
            if dd.replicated or not dd.matrix:
                continue
            af = ref.access_function(loop_vars)
            df = mat_mul(dd.matrix, [list(r) for r in af.matrix])
            if df != [row[:depth] for row in cd.matrix]:
                return False
    return True
