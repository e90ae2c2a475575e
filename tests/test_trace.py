"""Tests for vectorized iteration enumeration and trace generation."""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.apps import ALL_APPS, build_app, lu, simple, stencil5
from repro.codegen.spmd import Scheme
from repro.compiler import compile_program
from repro.ir.builder import ProgramBuilder
from repro.ir.loops import Statement
from repro.machine.trace import (
    AddressSpace,
    _eval_affine_vec,
    _owner_ids,
    enumerate_iterations,
    outer_blocks,
    phase_trace,
    program_traces,
)
from repro.pipeline import CompileSession


def key_sorted_trace(spmd, phase, space):
    """Reference trace of one phase, put in program order by sorting:
    every access gets a mixed-radix key (the iteration's digits, a pad
    digit below a shallower statement's depth, then the statement and
    reference positions) and a stable argsort orders them.  Returns
    (addr, proc, write) in int64 / int64 / bool."""
    prog = spmd.program
    params = prog.params
    nest = phase.nest
    nstmt = len(nest.body)

    # Key radices over the nest's global loop spans.
    bounds = nest.numeric_bounds(params)
    spans = [hi - lo + 2 for lo, hi in bounds]  # +1 for the pad digit
    glos = [lo for lo, _ in bounds]
    max_refs = max(1 + len(st.reads) for st in nest.body)

    keys: List[np.ndarray] = []
    addrs: List[np.ndarray] = []
    writes: List[np.ndarray] = []
    procs: List[np.ndarray] = []

    # Cache iteration enumerations per distinct depth.
    enum_cache: Dict[int, Tuple[Dict[str, np.ndarray], int]] = {}

    for s, st in enumerate(nest.body):
        depth = st.depth if st.depth is not None else nest.depth
        if depth not in enum_cache:
            enum_cache[depth] = enumerate_iterations(nest, params, depth)
        cols, n = enum_cache[depth]
        if n == 0:
            continue
        owner = _owner_ids(
            phase.owners[s], nest, cols, n, params, spmd.nprocs, spmd.grid
        )
        # Mixed-radix program-order key of the iteration (+ stmt digit).
        key = np.zeros(n, dtype=np.int64)
        for k in range(nest.depth):
            key *= spans[k]
            if k < depth:
                key += cols[nest.loop_vars[k]] - glos[k] + 1
        key = (key * nstmt + s) * max_refs

        refs = [(r, False) for r in st.reads] + [(st.write, True)]
        for rpos, (ref, is_write) in enumerate(refs):
            ta = spmd.transformed[ref.array.name]
            idx_cols = [
                _eval_affine_vec(e, cols, params, n)
                for e in ref.index_exprs
            ]
            elem = ta.layout.linearize_vec(idx_cols)
            byte = space.bases[ref.array.name] + elem * ta.decl.element_size
            if ref.array.name in space.replicated_stride:
                byte = byte + owner * space.replicated_stride[ref.array.name]
            keys.append(key + rpos)
            addrs.append(byte.astype(np.int64))
            writes.append(np.full(n, is_write))
            procs.append(owner)

    if not keys:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=bool)

    key = np.concatenate(keys)
    addr = np.concatenate(addrs)
    write = np.concatenate(writes)
    proc = np.concatenate(procs)
    order = np.argsort(key, kind="stable")
    return addr[order], proc[order], write[order]


def run_nest_order_trace(spmd, phase, space):
    """Reference trace of one phase by an access-at-a-time walk in the
    sequential executor's order (``codegen.executor.run_nest``): at each
    level the statements of that depth in body order, reads before the
    write, then the next loop."""
    params = spmd.program.params
    nest = phase.nest
    by_level: Dict[int, List[int]] = {}
    for s, st in enumerate(nest.body):
        d = st.depth if st.depth is not None else nest.depth
        by_level.setdefault(d, []).append(s)
    out: List[Tuple[int, int, bool]] = []
    env = dict(params)

    def level(lv: int) -> None:
        for s in by_level.get(lv, ()):
            st = nest.body[s]
            cols = {v: np.array([env[v]]) for v in nest.loop_vars[:lv]}
            owner = int(_owner_ids(phase.owners[s], nest, cols, 1, params,
                                   spmd.nprocs, spmd.grid)[0])
            for ref, is_write in ([(r, False) for r in st.reads]
                                  + [(st.write, True)]):
                name = ref.array.name
                ta = spmd.transformed[name]
                a = (space.bases[name] + ta.layout.linearize(
                    ref.index_at(env)) * ta.decl.element_size)
                a += owner * space.replicated_stride.get(name, 0)
                out.append((a, owner, is_write))
        if lv == nest.depth:
            return
        loop = nest.loops[lv]
        for v in range(loop.lower.eval(env), loop.upper.eval(env) + 1):
            env[loop.var] = v
            level(lv + 1)
        env.pop(loop.var, None)

    level(0)
    if not out:
        return (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0, bool),)
    addr, proc, write = zip(*out)
    return np.array(addr), np.array(proc), np.array(write)


def assert_trace_equal(t, ref, what):
    addr, proc, write = ref
    assert np.array_equal(t.addr, addr), what
    assert np.array_equal(t.proc, proc), what
    assert np.array_equal(t.write, write), what
    assert t.n_accesses == len(addr), what


class TestEnumerate:
    def test_rectangular_matches_iterate(self, figure1_program):
        nest = figure1_program.nest("add")
        cols, n = enumerate_iterations(nest, figure1_program.params)
        envs = list(nest.iterate(figure1_program.params))
        assert n == len(envs)
        for t, env in enumerate(envs):
            for v in nest.loop_vars:
                assert cols[v][t] == env[v]

    def test_triangular_matches_iterate(self, lu_program):
        nest = lu_program.nests[0]
        cols, n = enumerate_iterations(nest, lu_program.params)
        envs = list(nest.iterate(lu_program.params))
        assert n == len(envs)
        for t, env in enumerate(envs):
            for v in nest.loop_vars:
                assert cols[v][t] == env[v]

    def test_partial_depth(self, lu_program):
        nest = lu_program.nests[0]
        cols, n = enumerate_iterations(nest, lu_program.params, depth=2)
        n_expected = sum(1 for _ in nest.iterate(lu_program.params))
        # depth-2 enumeration is the (I1, I2) prefix space
        n2 = 0
        seen = set()
        for env in nest.iterate(lu_program.params):
            seen.add((env["I1"], env["I2"]))
        assert n == len(seen)

    def test_empty_range(self):
        from repro.ir.builder import ProgramBuilder

        pb = ProgramBuilder("t", params={})
        a = pb.array("A", (4,))
        (i,) = pb.vars("I")
        nest = pb.nest("n", [("I", 2, 1)], [pb.assign(a(i), [a(i)], None)])
        cols, n = enumerate_iterations(nest, {})
        assert n == 0


class TestAddressSpace:
    def test_page_aligned_bases(self, figure1_program):
        spmd = compile_program(figure1_program, Scheme.BASE, 2)
        space = AddressSpace.build(spmd.transformed, 2, page_bytes=256)
        for base in space.bases.values():
            assert base % 256 == 0

    def test_replicated_per_proc_copies(self):
        from repro.apps import erlebacher

        prog = erlebacher.build(6, time_steps=2)
        spmd = compile_program(prog, Scheme.COMP_DECOMP, 4)
        space = AddressSpace.build(spmd.transformed, 4, page_bytes=256)
        assert "U" in space.replicated_stride
        stride = space.replicated_stride["U"]
        assert stride >= spmd.transformed["U"].nbytes

    def test_no_overlap(self, figure1_program):
        spmd = compile_program(figure1_program, Scheme.BASE, 2)
        space = AddressSpace.build(spmd.transformed, 2, page_bytes=64)
        ranges = []
        for name, ta in spmd.transformed.items():
            ranges.append((space.bases[name],
                           space.bases[name] + ta.nbytes))
        ranges.sort()
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 <= b0


class TestPhaseTrace:
    def test_addresses_match_layout(self, figure1_program):
        """Every traced address must equal base + element_size * the
        layout's linearization of the reference's indices."""
        spmd = compile_program(figure1_program, Scheme.COMP_DECOMP_DATA, 4)
        space, traces = program_traces(spmd)
        t = traces[1]  # relax
        nest = spmd.phases[1].nest
        # reconstruct expected addresses serially
        expected = []
        for env in nest.iterate(figure1_program.params):
            st = nest.body[0]
            for ref in list(st.reads) + [st.write]:
                ta = spmd.transformed[ref.array.name]
                idx = ref.index_at(env)
                expected.append(
                    space.bases[ref.array.name]
                    + ta.layout.linearize(idx) * ta.decl.element_size
                )
        assert len(expected) == t.n_accesses
        assert sorted(expected) == sorted(t.addr.tolist())


    def test_reads_precede_write_within_statement(self, figure1_program):
        spmd = compile_program(figure1_program, Scheme.BASE, 1)
        _, traces = program_traces(spmd)
        t = traces[1]
        # per group of 4 accesses (3 reads + 1 write) the write is last
        writes = t.write.reshape(-1, 4)
        assert (writes[:, :3] == False).all()  # noqa: E712
        assert (writes[:, 3] == True).all()  # noqa: E712

    def test_write_flags_counts(self, figure1_program):
        spmd = compile_program(figure1_program, Scheme.BASE, 2)
        _, traces = program_traces(spmd)
        n = figure1_program.params["N"]
        add = traces[0]
        assert int(add.write.sum()) == n * n
        assert add.n_accesses == 3 * n * n

    def test_imperfect_nest_counts(self, lu_program):
        spmd = compile_program(lu_program, Scheme.BASE, 2)
        _, traces = program_traces(spmd)
        t = traces[0]
        n = lu_program.params["N"]
        s1_insts = n * (n - 1) // 2
        s2_insts = sum(
            (n - 1 - i1) ** 2 for i1 in range(n)
        )
        assert t.n_accesses == 3 * s1_insts + 4 * s2_insts

    def test_replicated_addresses_disjoint_per_proc(self):
        from repro.apps import erlebacher

        prog = erlebacher.build(6, time_steps=2)
        spmd = compile_program(prog, Scheme.COMP_DECOMP, 4)
        space, traces = program_traces(spmd)
        ubase = space.bases["U"]
        stride = space.replicated_stride["U"]
        for t in traces:
            mask = (t.addr >= ubase) & (t.addr < ubase + 4 * stride)
            if not mask.any():
                continue
            copy_idx = (t.addr[mask] - ubase) // stride
            assert np.array_equal(copy_idx, t.proc[mask])


class TestProgramOrder:
    """The trace writes each access into its program-order slot; these
    pin it to the key-sorted reference and to the executor's order."""

    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    def test_matches_key_sorted_reference(self, app):
        for n in (4, 6, 8):
            prog = build_app(app, n=n)
            session = CompileSession()
            for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                           Scheme.COMP_DECOMP_DATA):
                for nprocs in (1, 3, 8, 32):
                    spmd = session.compile(prog, scheme, nprocs)
                    space, traces = program_traces(spmd)
                    assert len(traces) == len(spmd.phases)
                    for phase, t in zip(spmd.phases, traces):
                        assert_trace_equal(
                            t, key_sorted_trace(spmd, phase, space),
                            (n, scheme.value, nprocs, phase.nest.name))

    @staticmethod
    def hand_built():
        """A depth-0 statement, a depth-1 statement listed after a
        depth-3 one, and a middle loop whose range is empty on the last
        outer iteration."""
        n = 5
        pb = ProgramBuilder("hand", params={"N": n})
        a = pb.array("A", (n, n, 2))
        b = pb.array("B", (n,))
        c = pb.array("C", (2,))
        i, j, k = pb.vars("I", "J", "K")
        nest = pb.nest(
            "hand", [("I", 0, n - 1), ("J", i + 1, n - 1), ("K", 0, 1)], [])
        nest.body = [
            Statement(write=a(i, j, k), reads=(a(i, j, k), b(j)), depth=3),
            Statement(write=b(i), reads=(b(i), c(0)), depth=1),
            Statement(write=c(1), reads=(c(0),), depth=0),
            Statement(write=a(i, i, 0), reads=(), depth=1),
        ]
        return pb.build()

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_hand_built_nest(self, nprocs):
        prog = self.hand_built()
        spmd = compile_program(prog, Scheme.BASE, nprocs)
        space, traces = program_traces(spmd)
        for phase, t in zip(spmd.phases, traces):
            assert_trace_equal(t, key_sorted_trace(spmd, phase, space),
                               "key")
            assert_trace_equal(t, run_nest_order_trace(spmd, phase, space),
                               "walk")
        # The depth-0 statement runs once, before any loop; the depth-1
        # statements open every I iteration, ahead of its J loop.
        t = traces[0]
        c_base = space.bases["C"]
        assert t.addr[:2].tolist() == [c_base, c_base + 8]
        assert t.write[:2].tolist() == [False, True]
        assert t.n_accesses == 2 + 5 * (3 + 1) + 3 * (5 * 4 // 2) * 2

    @pytest.mark.parametrize("scheme", [Scheme.BASE, Scheme.COMP_DECOMP,
                                        Scheme.COMP_DECOMP_DATA])
    def test_lu_matches_executor_walk(self, scheme):
        prog = lu.build(n=6)
        for nprocs in (1, 3, 4):
            spmd = compile_program(prog, scheme, nprocs)
            space, traces = program_traces(spmd)
            for phase, t in zip(spmd.phases, traces):
                assert_trace_equal(
                    t, run_nest_order_trace(spmd, phase, space),
                    (scheme.value, nprocs))


class TestPieces:
    """``program_traces(..., pieces)`` traces sub-ranges of a phase's
    outermost loop: consecutive pieces concatenate to the whole phase
    trace, the depth-0 statements in the first, and
    :func:`outer_blocks` counts each outer iteration's accesses without
    tracing them."""

    @pytest.mark.parametrize("app", sorted(ALL_APPS) + ["hand"])
    def test_pieces_concatenate_to_the_phase(self, app):
        if app == "hand":
            prog, schemes = TestProgramOrder.hand_built(), [Scheme.BASE]
        else:
            prog, schemes = build_app(app, n=8), list(Scheme)
        rng = np.random.default_rng(len(app))
        session = CompileSession()
        for scheme in schemes:
            for nprocs in (1, 3):
                spmd = session.compile(prog, scheme, nprocs)
                _, whole = program_traces(spmd)
                for k, (phase, t) in enumerate(zip(spmd.phases, whole)):
                    lead, sizes = outer_blocks(spmd, phase)
                    assert lead + sizes.sum() == t.n_accesses
                    nout = len(sizes)
                    cuts = sorted({0, nout, *rng.integers(0, nout + 1, 3)})
                    _, parts = program_traces(spmd, pieces=[
                        (k, a, b) for a, b in zip(cuts, cuts[1:])])
                    for f in ("addr", "proc", "write"):
                        got = np.concatenate([getattr(p, f) for p in parts])
                        assert got.dtype == getattr(t, f).dtype
                        assert np.array_equal(got, getattr(t, f)), (
                            scheme.value, nprocs, k, f)
                    _, each = program_traces(spmd, pieces=[
                        (k, j, j + 1) for j in range(nout)])
                    assert [p.n_accesses for p in each] == [
                        int(size) + (lead if j == 0 else 0)
                        for j, size in enumerate(sizes)]

    def test_lead_belongs_to_the_first_piece(self):
        prog = TestProgramOrder.hand_built()
        spmd = compile_program(prog, Scheme.BASE, 1)
        lead, sizes = outer_blocks(spmd, spmd.phases[0])
        assert lead == 2  # C(1) = C(0): one read, one write
        assert sizes.tolist() == [4 + 3 * 4 * 2 - 3 * j * 2
                                  for j in range(5)]
