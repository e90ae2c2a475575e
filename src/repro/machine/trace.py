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

A phase can also be traced over a range of its outermost loop's
iterations: the same walk, with level 0's one row clipped.  Consecutive
ranges concatenate to the phase's trace, and :func:`outer_blocks`
counts each outer iteration's accesses without tracing them, so a long
round can be simulated in chunks of whole iterations.
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
    nest: LoopNest, params: Mapping[str, int], depth: int,
    top: Optional[Tuple[int, int]] = None,
) -> Iterator[Tuple[Dict[str, np.ndarray], int, Optional[np.ndarray]]]:
    """Walk the first ``depth`` loops level by level, in sequential
    order.  Yields ``(columns, count, reps)`` for levels 0..``depth``:
    the coordinate columns of that level's rows (the iteration prefixes
    of its enclosing loops), their count, and how many iterations of the
    next loop each row runs (None at ``depth``).  ``top = (first,
    stop)`` keeps only the outermost loop's iterations first..stop-1,
    counted from its lower bound (level 0 is one row)."""
    cols: Dict[str, np.ndarray] = {}
    n = 1
    for d, loop in enumerate(nest.loops[:depth]):
        lo = _eval_affine_vec(loop.lower, cols, params, n)
        hi = _eval_affine_vec(loop.upper, cols, params, n)
        if d == 0 and top is not None:
            lo, hi = lo + top[0], np.minimum(hi, lo + top[1] - 1)
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

    @property
    def array_names(self) -> List[str]:
        """The array names in base-address order."""
        return sorted(self.bases, key=self.bases.__getitem__)

    def array_index(self, addr: np.ndarray) -> np.ndarray:
        """Each address's owning array, as an index into
        :attr:`array_names`: arrays are laid out contiguously from their
        bases, so one binary search over the sorted bases answers it."""
        starts = np.array([self.bases[nm] for nm in self.array_names],
                          dtype=np.int64)
        return np.searchsorted(starts, addr, side="right") - 1


def _smallest_int(largest: int) -> type:
    """The narrowest signed integer type that holds 0..``largest``."""
    for t in (np.int8, np.int16, np.int32):
        if largest <= np.iinfo(t).max:
            return t
    return np.int64


def _statement_depths(
    nest: LoopNest,
) -> Tuple[Dict[int, List[int]], int, List[int]]:
    """The statements of each depth in body order, the deepest depth,
    and the references each depth's rows make of their own: a level's
    own block holds its statements' references (reads, then the write)
    one statement after another."""
    by_depth: Dict[int, List[int]] = {}
    for s, st in enumerate(nest.body):
        d = st.depth if st.depth is not None else nest.depth
        by_depth.setdefault(d, []).append(s)
    deepest = max(by_depth, default=0)
    own = [sum(1 + len(nest.body[s].reads) for s in by_depth.get(d, ()))
           for d in range(deepest + 1)]
    return by_depth, deepest, own


def _block_sizes(own: List[int], reps: List[np.ndarray]) -> list:
    """Block sizes of levels 0..len(reps), bottom-up: a row's own
    references plus its children's blocks (children are contiguous rows
    of the next level).  Every row of the deepest level, len(reps), has
    no children, so that level's size is the one number ``own[-1]``
    and its rows are never listed."""
    sizes = [own[len(reps)]]
    for d in range(len(reps) - 1, -1, -1):
        if d == len(reps) - 1:
            inner = sizes[0] * reps[d]
        else:
            csum = np.concatenate(([0], np.cumsum(sizes[0])))
            ends = np.cumsum(reps[d])
            inner = csum[ends] - csum[ends - reps[d]]
        sizes.insert(0, own[d] + inner)
    return sizes


def accesses_at_most(spmd: SpmdProgram, phase: SpmdPhase) -> int:
    """An upper bound on a phase's accesses from its loops' numeric
    ranges (:meth:`LoopNest.numeric_bounds`), exact for a rectangular
    nest.  It walks no level, so it is the cheap first answer to "is
    this round small"."""
    _, deepest, own = _statement_depths(phase.nest)
    bounds = phase.nest.numeric_bounds(spmd.program.params)
    total, rows = 0, 1
    for d in range(deepest + 1):
        total += own[d] * rows
        if d < deepest:
            rows *= max(bounds[d][1] - bounds[d][0] + 1, 0)
    return total


def outer_blocks(spmd: SpmdProgram, phase: SpmdPhase
                 ) -> Tuple[int, np.ndarray]:
    """How many accesses of a phase come ahead of its outermost loop
    (its depth-0 statements), and how many each iteration of that loop
    makes, in order.  A phase without loops has no iterations.  The
    walk stops before the deepest level, whose rows are only counted,
    so it costs a small part of :func:`phase_trace`."""
    _, deepest, own = _statement_depths(phase.nest)
    if deepest == 0:
        return own[0], np.zeros(0, dtype=np.int64)
    reps = []
    for _, _, r in _levels(phase.nest, spmd.program.params, deepest):
        reps.append(r)
        if len(reps) == deepest:
            break  # the deepest level's columns are never built
    per_iteration = _block_sizes(own, reps)[1]
    return own[0], np.broadcast_to(per_iteration, (int(reps[0][0]),))


def phase_trace(
    spmd: SpmdProgram,
    phase: SpmdPhase,
    space: AddressSpace,
    top: Optional[Tuple[int, int]] = None,
) -> PhaseTrace:
    """Build the merged, program-ordered access trace of one phase.

    ``top = (first, stop)`` traces only the outermost loop's iterations
    first..stop-1 (see :func:`outer_blocks`); the phase's depth-0
    statements run ahead of that loop, so they belong to the piece with
    ``first == 0``.  Consecutive pieces concatenate to the whole trace.
    """
    params = spmd.program.params
    nest = phase.nest
    by_depth, deepest, own = _statement_depths(nest)
    if top is not None and top[0] > 0:
        by_depth.pop(0, None)
        own[0] = 0

    # One walk over the levels: each level's child counts, and the
    # columns of the levels that run statements.
    level_cols: Dict[int, Dict[str, np.ndarray]] = {}
    reps: List[np.ndarray] = []
    for d, (cols, n, r) in enumerate(_levels(nest, params, deepest, top)):
        if d in by_depth:
            level_cols[d] = cols
        if r is not None:
            reps.append(r)

    # The n rows of the deepest level are listed here: a piece's rows
    # are few enough.
    sizes = _block_sizes(own, reps)[:-1] + [
        np.full(n, own[deepest], dtype=np.int64)]
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


def program_traces(
    spmd: SpmdProgram, page_bytes: int = 4096,
    pieces: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> Tuple[AddressSpace, List[PhaseTrace]]:
    """Traces for every phase (one time step), in program order.

    ``pieces`` lists ``(phase index, first, stop)`` triples instead,
    each traced over the outermost loop's iterations first..stop-1 (see
    :func:`phase_trace`): :func:`repro.machine.simulate.simulate` walks
    a large round in chunks of such pieces."""
    space = AddressSpace.build(spmd.transformed, spmd.nprocs, page_bytes)
    if pieces is None:
        pieces = [(k, None, None) for k in range(len(spmd.phases))]
    # Nest frequency (inner repetition) is applied by the cost model,
    # not by replicating trace data.
    traces = []
    with obs.span("sim.trace", cat="machine", scheme=spmd.scheme.value,
                  total_bytes=space.total_bytes) as sp:
        for k, first, stop in pieces:
            phase = spmd.phases[k]
            top = None if first is None else (first, stop)
            with obs.span("sim.trace.phase", cat="machine",
                          nest=phase.nest.name) as psp:
                t = phase_trace(spmd, phase, space, top)
                psp.add("accesses", t.n_accesses)
                traces.append(t)
        sp.add("accesses", sum(t.n_accesses for t in traces))
    return space, traces
