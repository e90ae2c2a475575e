"""Vectorized address-trace generation.

Turns an :class:`SpmdProgram` phase into one merged stream of (owning
processor, byte address, is-write) triples in sequential program order,
without any per-iteration Python dispatch: the iteration space is
enumerated level by level with ``np.repeat`` (triangular bounds
supported), owners are computed by matrix products + folding arithmetic,
and addresses by the layouts' vectorized linearization.

Program order is the order in which the sequential executor runs a
nest: at each level, the statements of that depth in body order (each
one's reads, then its write), then the next loop's iterations.  So every
row of a level owns one contiguous block of the stream, its own
statements' references followed by its children's blocks.  Block sizes
are summed bottom-up over the levels and block starts accumulated
top-down, and every reference is written straight into its slot; the
coherence model reads the result as the lockstep interleaving of the
processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.codegen.spmd import OwnerPlan, SpmdPhase, SpmdProgram
from repro.datatrans.transform import TransformedArray
from repro.ir.arrays import ArrayRef
from repro.ir.expr import AffineExpr
from repro.ir.loops import LoopNest


@dataclass
class PhaseTrace:
    """All accesses of one phase, in global program order.

    ``addr`` is int32 when the address space is below 2 GiB, else
    int64; ``proc`` is the smallest signed integer type that holds the
    largest processor id (int8 up to 128 processors).
    """

    nest_name: str
    addr: np.ndarray  # byte addresses
    write: np.ndarray  # bool
    proc: np.ndarray  # owning processor id
    sync_after: str
    pipelined: bool
    barriers: int
    nprocs: int

    @property
    def n_accesses(self) -> int:
        return len(self.addr)


def _eval_affine_vec(
    e: AffineExpr, cols: Mapping[str, np.ndarray], params: Mapping[str, int],
    n: int,
) -> np.ndarray:
    out = np.full(n, e.const, dtype=np.int64)
    for v, c in e.coeffs:
        if v in cols:
            out += c * cols[v]
        elif v in params:
            out += c * params[v]
        else:
            raise ValueError(f"unbound variable {v}")
    return out


def _levels(
    nest: LoopNest, params: Mapping[str, int], depth: int
) -> Iterator[Tuple[Dict[str, np.ndarray], int, Optional[np.ndarray]]]:
    """Walk the first ``depth`` loops level by level, in sequential
    order.  Yields ``(columns, count, reps)`` for levels 0..``depth``:
    the coordinate columns of that level's rows (the iteration prefixes
    of its enclosing loops), their count, and how many iterations of the
    next loop each row runs (None at ``depth``)."""
    cols: Dict[str, np.ndarray] = {}
    n = 1
    for loop in nest.loops[:depth]:
        lo = _eval_affine_vec(loop.lower, cols, params, n)
        hi = _eval_affine_vec(loop.upper, cols, params, n)
        reps = np.maximum(hi - lo + 1, 0)
        yield cols, n, reps
        total = int(reps.sum())
        # Repeat every existing column per row; the new column runs
        # lo..hi within each row.
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        nxt = {v: np.repeat(c, reps) for v, c in cols.items()}
        nxt[loop.var] = (np.repeat(lo, reps)
                         + (np.arange(total, dtype=np.int64) - starts))
        cols, n = nxt, total
    yield cols, n, None


def enumerate_iterations(
    nest: LoopNest, params: Mapping[str, int], depth: Optional[int] = None
) -> Tuple[Dict[str, np.ndarray], int]:
    """Enumerate the first ``depth`` loops as coordinate columns in
    sequential order.  Returns (columns, count)."""
    depth = nest.depth if depth is None else depth
    for cols, n, _ in _levels(nest, params, depth):
        pass  # the last level's rows are the iterations
    return cols, n


def _owner_ids(
    plan: OwnerPlan,
    nest: LoopNest,
    cols: Mapping[str, np.ndarray],
    n: int,
    params: Mapping[str, int],
    nprocs: int,
    grid: Sequence[int],
) -> np.ndarray:
    if plan.kind == "serial" or nprocs == 1:
        return np.zeros(n, dtype=np.int64)
    if plan.kind == "base":
        loop = nest.loops[plan.level]
        lo = _eval_affine_vec(loop.lower, cols, params, n)
        hi = _eval_affine_vec(loop.upper, cols, params, n)
        span = np.maximum(hi - lo + 1, 1)
        v = cols[loop.var]
        return np.clip((v - lo) * nprocs // span, 0, nprocs - 1)
    # affine plan; pid linearization is column-major (dim 0 fastest),
    # consistent with repro.decomp.folding.linearize_grid.
    loop_vars = nest.loop_vars
    pid = np.zeros(n, dtype=np.int64)
    ndim = len(plan.matrix)
    for dim in range(ndim - 1, -1, -1):
        row = plan.matrix[dim]
        virt = np.zeros(n, dtype=np.int64)
        for c, v in zip(row, loop_vars):
            if c:
                virt += c * cols[v]
        fold = plan.foldings[dim]
        g = grid[dim] if dim < len(grid) else 1
        ext = plan.extents[dim] if dim < len(plan.extents) else 1
        from repro.decomp.model import FoldKind

        if fold.kind is FoldKind.BLOCK:
            b = max(1, -(-ext // g))
            coord = np.minimum(virt // b, g - 1)
        elif fold.kind is FoldKind.CYCLIC:
            coord = virt % g
        else:
            coord = (virt // fold.block) % g
        pid = pid * g + coord
    return pid


@dataclass
class AddressSpace:
    """Byte base addresses of every (transformed) array, page-aligned.

    Replicated arrays get one private copy per processor; their base for
    a given access depends on the accessing processor.
    """

    bases: Dict[str, int]
    replicated_stride: Dict[str, int]
    total_bytes: int

    @staticmethod
    def build(
        transformed: Mapping[str, TransformedArray],
        nprocs: int,
        page_bytes: int = 4096,
    ) -> "AddressSpace":
        bases: Dict[str, int] = {}
        repl: Dict[str, int] = {}
        pos = 0

        def align(x: int) -> int:
            return -(-x // page_bytes) * page_bytes

        for name in sorted(transformed):
            ta = transformed[name]
            bases[name] = pos
            nbytes = ta.nbytes
            if ta.replicated:
                stride = align(nbytes)
                repl[name] = stride
                pos += stride * nprocs
            else:
                pos += align(nbytes)
        return AddressSpace(bases=bases, replicated_stride=repl,
                            total_bytes=pos)


def _smallest_int(largest: int) -> type:
    """The narrowest signed integer type that holds 0..``largest``."""
    for t in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(t).max:
            return t
    return np.int64


def phase_trace(
    spmd: SpmdProgram,
    phase: SpmdPhase,
    space: AddressSpace,
) -> PhaseTrace:
    """Build the merged, program-ordered access trace of one phase."""
    params = spmd.program.params
    nest = phase.nest
    # Statements per depth, in body order; a level's own block holds
    # their references (reads, then the write) one statement after
    # another.
    by_depth: Dict[int, List[int]] = {}
    for s, st in enumerate(nest.body):
        d = st.depth if st.depth is not None else nest.depth
        by_depth.setdefault(d, []).append(s)
    deepest = max(by_depth, default=0)
    own = [sum(1 + len(nest.body[s].reads) for s in by_depth.get(d, ()))
           for d in range(deepest + 1)]

    # One walk over the levels: each level's child counts, and the
    # columns of the levels that run statements.
    level_cols: Dict[int, Dict[str, np.ndarray]] = {}
    reps: List[np.ndarray] = []
    for d, (cols, n, r) in enumerate(_levels(nest, params, deepest)):
        if d in by_depth:
            level_cols[d] = cols
        if r is not None:
            reps.append(r)

    # Block sizes bottom-up: a row's own references plus its children's
    # blocks (children are contiguous rows of the next level); the n
    # rows of the deepest level have no children.
    sizes = [np.full(n, own[deepest], dtype=np.int64)]
    for d in range(deepest - 1, -1, -1):
        csum = np.concatenate(([0], np.cumsum(sizes[0])))
        ends = np.cumsum(reps[d])
        sizes.insert(0, own[d] + csum[ends] - csum[ends - reps[d]])
    total = int(sizes[0][0])
    # Block starts top-down: a child starts after its parent's own
    # references and its earlier siblings' blocks.
    starts = [np.zeros(1, dtype=np.int64)]
    for d in range(deepest):
        csum = np.concatenate(([0], np.cumsum(sizes[d + 1])))
        first = np.cumsum(reps[d]) - reps[d]
        starts.append(np.repeat(starts[d] + own[d] - csum[first], reps[d])
                      + csum[:-1])

    addr = np.empty(total, dtype=np.int32 if space.total_bytes < 2**31
                    else np.int64)
    proc = np.empty(total, dtype=_smallest_int(spmd.nprocs - 1))
    write = np.zeros(total, dtype=bool)
    for d, stmts in by_depth.items():
        cols, slot = level_cols[d], starts[d]
        n = len(slot)
        if n == 0:
            continue
        for s in stmts:
            st = nest.body[s]
            # Owners and addresses in int64; narrowed only when stored.
            owner = _owner_ids(phase.owners[s], nest, cols, n, params,
                               spmd.nprocs, spmd.grid)
            # A statement that reads the element it writes (x = f(x))
            # reuses the read's addresses.
            byte_of: Dict[ArrayRef, np.ndarray] = {}
            for ref in (*st.reads, st.write):
                if ref not in byte_of:
                    ta = spmd.transformed[ref.array.name]
                    elem = ta.layout.linearize_vec(
                        [_eval_affine_vec(e, cols, params, n)
                         for e in ref.index_exprs])
                    byte = (space.bases[ref.array.name]
                            + elem * ta.decl.element_size)
                    if ref.array.name in space.replicated_stride:
                        byte += owner * space.replicated_stride[
                            ref.array.name]
                    byte_of[ref] = byte
                addr[slot] = byte_of[ref]
                proc[slot] = owner
                slot = slot + 1
            write[slot - 1] = True  # the write is the last reference
    return PhaseTrace(
        nest_name=nest.name,
        addr=addr,
        write=write,
        proc=proc,
        sync_after=phase.sync_after.value,
        pipelined=phase.pipelined,
        barriers=phase.barriers_per_execution,
        nprocs=spmd.nprocs,
    )


def program_traces(spmd: SpmdProgram, page_bytes: int = 4096) -> Tuple[
    AddressSpace, List[PhaseTrace]
]:
    """Traces for every phase (one time step), in program order."""
    space = AddressSpace.build(spmd.transformed, spmd.nprocs, page_bytes)
    # Nest frequency (inner repetition) is applied by the cost model,
    # not by replicating trace data.
    traces = []
    with obs.span("sim.trace", cat="machine", scheme=spmd.scheme.value,
                  total_bytes=space.total_bytes) as sp:
        for phase in spmd.phases:
            with obs.span("sim.trace.phase", cat="machine",
                          nest=phase.nest.name) as psp:
                t = phase_trace(spmd, phase, space)
                psp.add("accesses", t.n_accesses)
                traces.append(t)
        sp.add("accesses", sum(t.n_accesses for t in traces))
    return space, traces
