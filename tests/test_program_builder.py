"""Tests for Program validation and the builder DSL."""

import pytest

from repro.analysis.dependence import analyze_nest
from repro.ir.arrays import ArrayDecl
from repro.ir.builder import ProgramBuilder
from repro.ir.expr import Var
from repro.ir.loops import Loop, LoopNest, Statement
from repro.ir.program import Program


class TestBuilder:
    def test_duplicate_array(self):
        pb = ProgramBuilder("t")
        pb.array("A", (4,))
        with pytest.raises(ValueError):
            pb.array("A", (4,))

    def test_vars(self):
        i, j = ProgramBuilder.vars("I", "J")
        assert i.coeff("I") == 1
        assert j.coeff("J") == 1

    def test_build_validates(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (4,))
        i = pb.vars("I")[0]
        # reference uses undeclared variable K in bounds
        pb.nest("n", [("I", 0, Var("K"))], [pb.assign(a(i), [a(i)], None)])
        with pytest.raises(ValueError):
            pb.build()

    def test_build_no_validate(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (4,))
        i = pb.vars("I")[0]
        pb.nest("n", [("I", 0, Var("K"))], [pb.assign(a(i), [a(i)], None)])
        prog = pb.build(validate=False)
        assert prog.nests


class TestProgramValidate:
    def _base(self):
        pb = ProgramBuilder("t", params={"N": 4})
        a = pb.array("A", (4, 4))
        i, j = pb.vars("I", "J")
        pb.nest("n1", [("I", 0, 3), ("J", 0, 3)],
                [pb.assign(a(i, j), [a(i, j)], None)])
        return pb

    def test_ok(self):
        self._base().build().validate()

    def test_duplicate_nest_names(self):
        pb = self._base()
        a = pb._prog.arrays["A"]
        i, j = pb.vars("I", "J")
        pb.nest("n1", [("I", 0, 3), ("J", 0, 3)],
                [pb.assign(a(i, j), [a(i, j)], None)])
        with pytest.raises(ValueError, match="duplicate nest"):
            pb.build()

    def test_duplicate_loop_var(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (4, 4))
        i = Var("I")
        pb.nest("n", [("I", 0, 3), ("I", 0, 3)],
                [pb.assign(a(i, i), [a(i, i)], None)])
        with pytest.raises(ValueError, match="duplicate loop variable"):
            pb.build()

    def test_undeclared_array(self):
        prog = Program("t", arrays={}, params={})
        stray = ArrayDecl("Z", (4,))
        nest = LoopNest(
            "n",
            [Loop.make("I", 0, 3)],
            [Statement(write=stray(Var("I")), reads=())],
        )
        prog.nests.append(nest)
        with pytest.raises(ValueError, match="undeclared array"):
            prog.validate()

    def test_shadowed_declaration(self):
        decl1 = ArrayDecl("A", (4,))
        decl2 = ArrayDecl("A", (4,))
        prog = Program("t", arrays={"A": decl1}, params={})
        nest = LoopNest(
            "n",
            [Loop.make("I", 0, 3)],
            [Statement(write=decl2(Var("I")), reads=())],
        )
        prog.nests.append(nest)
        with pytest.raises(ValueError, match="shadowed"):
            prog.validate()

    def test_unbound_subscript_var(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (4,))
        pb.nest("n", [("I", 0, 3)], [pb.assign(a(Var("Q")), [], None)])
        with pytest.raises(ValueError, match="unbound variable Q"):
            pb.build()

    def test_bound_uses_inner_var(self):
        pb = ProgramBuilder("t")
        a = pb.array("A", (4, 4))
        i, j = pb.vars("I", "J")
        # I's bound uses J, which is declared later (inner) - illegal.
        pb.nest("n", [("I", 0, Var("J")), ("J", 0, 3)],
                [pb.assign(a(i, j), [a(i, j)], None)])
        with pytest.raises(ValueError, match="not an outer index"):
            pb.build()


class TestStatementDepth:
    """``validate`` rejects the statement depths ``analyze_nest`` cannot
    handle, naming the nest and the statement."""

    @staticmethod
    def _build(depth, subscript):
        pb = ProgramBuilder("t", params={"N": 4})
        a = pb.array("A", (4, 4))
        i, j = pb.vars("I", "J")
        nest = pb.nest("n2", [("I", 0, 3), ("J", 0, 3)],
                       [pb.assign(a(i, j), [a(i, j)], None)])
        ref = a(*subscript(i, j))
        nest.body.append(Statement(write=ref, reads=(ref,), depth=depth,
                                   label="odd"))
        return pb

    @pytest.mark.parametrize("depth", [3, -1, 1], ids=[
        "deeper-than-nest", "negative", "uses-inner-loop-var"])
    def test_rejected(self, depth):
        with pytest.raises(ValueError, match=r"^n2: statement 1 \(odd\)"):
            self._build(depth, lambda i, j: (i, j)).build()

    def test_depth_zero_with_constant_subscripts(self):
        prog = self._build(0, lambda i, j: (0, 1)).build()
        deps = analyze_nest(prog.nests[0], prog.params)
        # It runs once, so it only meets the loop body's instances
        # loop-independently, with no common loops.
        assert {(d.src_stmt, d.dst_stmt, d.level, d.dmin) for d in deps
                if 1 in (d.src_stmt, d.dst_stmt)} == {(0, 1, -1, ())}


class TestProgramQueries:
    def test_nest_lookup(self, figure1_program):
        assert figure1_program.nest("add").name == "add"
        with pytest.raises(KeyError):
            figure1_program.nest("missing")

    def test_total_iterations(self, figure1_program):
        n = figure1_program.params["N"]
        expected = n * n + (n - 2) * n
        assert figure1_program.total_iterations() == expected

    def test_repr(self, figure1_program):
        assert "simple" in repr(figure1_program)
