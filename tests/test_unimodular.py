"""Tests for unimodular restructuring and parallel-level detection."""

from repro.analysis.parallelism import (
    outermost_parallel_level,
    parallel_levels,
)
from repro.analysis.unimodular import expose_outer_parallelism
from repro.ir.builder import ProgramBuilder
from repro.util.intlinalg import identity, is_unimodular


class TestParallelLevels:
    def test_figure1(self, figure1_program):
        add = figure1_program.nest("add")
        relax = figure1_program.nest("relax")
        assert parallel_levels(add, params=figure1_program.params) == (0, 1)
        assert parallel_levels(relax, params=figure1_program.params) == (1,)
        assert outermost_parallel_level(
            relax, params=figure1_program.params
        ) == 1

    def test_fully_serial(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (16, 16))
        i, j = pb.vars("I", "J")
        nest = pb.nest("n", [("I", 1, 14), ("J", 1, 14)],
                       [pb.assign(a(i, j), [a(i - 1, j), a(i, j - 1)], None)])
        assert parallel_levels(nest, params={}) == ()
        assert outermost_parallel_level(nest, params={}) is None


class TestExpose:
    def test_interchange_moves_parallel_out(self, figure1_program):
        relax = figure1_program.nest("relax")
        res = expose_outer_parallelism(relax, figure1_program.params)
        assert [l.var for l in res.nest.loops] == ["I", "J"]
        assert res.parallel == (0,)
        assert is_unimodular(res.transform)
        assert res.outer_parallel_count == 1

    def test_already_parallel_identity(self, figure1_program):
        add = figure1_program.nest("add")
        res = expose_outer_parallelism(add, figure1_program.params)
        assert res.transform == identity(2)
        assert res.nest is add

    def test_imperfect_nest_untouched(self, lu_program):
        nest = lu_program.nests[0]
        res = expose_outer_parallelism(nest, lu_program.params)
        assert res.nest is nest
        assert res.transform == identity(3)
        # BASE will parallelize I2 (level 1), like the paper.
        assert res.parallel == (1, 2)

    def test_triangular_bounds_block_illegal_permutation(self):
        # Parallel loop J has bounds depending on I: cannot be hoisted.
        pb = ProgramBuilder("t", params={"N": 8})
        a = pb.array("A", (8, 8))
        i, j = pb.vars("I", "J")
        nest = pb.nest("n", [("I", 1, 7), ("J", i, 7)],
                       [pb.assign(a(j, i), [a(j, i - 1)], None)])
        res = expose_outer_parallelism(nest, pb._prog.params)
        assert res.nest is nest  # fell back

    def test_semantics_preserved_by_interchange(self, figure1_program):
        """Executing the restructured relax nest gives the same values."""
        import numpy as np

        from repro.codegen.executor import execute_program
        from repro.compiler import restructure_program

        init = {
            name: 1.0 + np.arange(decl.size, dtype=float).reshape(decl.dims)
            for name, decl in figure1_program.arrays.items()
        }
        a = execute_program(figure1_program, init=init)
        b = execute_program(restructure_program(figure1_program), init=init)
        for name in a:
            assert np.allclose(a[name], b[name])

    def test_idempotent(self, figure1_program):
        from repro.compiler import restructure_program

        r1 = restructure_program(figure1_program)
        for nest in r1.nests:
            res = expose_outer_parallelism(nest, r1.params)
            assert [l.var for l in res.nest.loops] == [
                l.var for l in nest.loops
            ]

    def test_memoized(self, figure1_program):
        relax = figure1_program.nest("relax")
        r1 = expose_outer_parallelism(relax, figure1_program.params)
        r2 = expose_outer_parallelism(relax, figure1_program.params)
        assert r1 is r2

    def test_band_locality_order_vpenta(self):
        """vpenta's 3-D sweeps put the plane loop K inside the column
        loop J, keeping the 2-D coefficient column in cache across the
        three planes."""
        from repro.apps import vpenta

        prog = vpenta.build(n=12)
        nest = prog.nest("fwd3d")
        res = expose_outer_parallelism(nest, prog.params)
        assert [l.var for l in res.nest.loops] == ["J", "K", "I"]

    def test_legal_after_transform(self, figure1_program):
        """All dependences of the transformed nest are still carried
        forward (lexicographically non-negative)."""
        relax = figure1_program.nest("relax")
        res = expose_outer_parallelism(relax, figure1_program.params)
        for d in res.deps:
            if d.level >= 0:
                assert d.dmin[d.level] is None or d.dmin[d.level] >= 1
