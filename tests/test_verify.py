"""The semantic verification oracle (PR-3 tentpole).

Covers: the oracle passing over a real app × scheme × procs grid
(bit-identical lockstep execution through transformed layouts), the
bijectivity pre-check rejecting a colliding layout, first-divergence
diagnostics when the compiled plan genuinely computes something else,
and the ``verify`` CLI command.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.__main__ import main
from repro.apps import build_app
from repro.codegen.spmd import Scheme
from repro.datatrans.layout import DimAtom, Layout
from repro.errors import VerifyError
from repro.pipeline import CompileSession, reset_session
from repro.verify import (
    format_verify_table,
    grid_ok,
    verify_grid,
    verify_point,
    verify_spmd,
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    reset_session()
    yield
    obs.disable()
    obs.reset()
    reset_session()


class TestOracleGrid:
    @pytest.mark.parametrize("app", ["simple", "stencil5", "lu"])
    @pytest.mark.parametrize(
        "scheme",
        [Scheme.BASE, Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA],
    )
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_point_verifies(self, app, scheme, nprocs):
        res = verify_point(app, scheme, nprocs, n=6)
        assert res.ok, res.summary()
        assert res.phases_checked > 0
        assert res.elements_checked > 0

    def test_grid_shares_session(self):
        session = CompileSession()
        results = verify_grid(["simple"], [Scheme.COMP_DECOMP_DATA],
                              [1, 2], n=6, session=session)
        assert grid_ok(results)
        # restructure ran once, not once per grid point
        assert session.stats()["runs"]["restructure"] == 1

    def test_compile_failure_is_a_failed_point(self):
        res = verify_point("nosuchapp", Scheme.BASE, 1, n=6)
        assert not res.ok
        assert "compile failed" in res.reason

    def test_table_formatting(self):
        results = verify_grid(["simple"], [Scheme.BASE], [1], n=6)
        table = format_verify_table(results)
        assert "simple" in table
        assert "1 points, 1 ok, 0 failed" in table


class TestOracleCatchesBugs:
    def test_non_bijective_layout_rejected(self):
        prog = build_app("simple", n=6)
        spmd = CompileSession().compile(prog, Scheme.COMP_DECOMP_DATA, 2)
        name, ta = sorted(spmd.transformed.items())[0]
        dims = ta.decl.dims
        # Collapse the second dimension: distinct columns now share an
        # address, so the layout is not a bijection.
        bad = Layout(
            orig_dims=tuple(dims),
            atoms=(DimAtom(src=0, extent=dims[0]),
                   DimAtom(src=1, extent=1, mod=1)),
        )
        assert not bad.is_bijective()
        spmd.transformed[name] = replace(ta, layout=bad)
        res = verify_spmd(spmd, prog)
        assert not res.ok
        assert "not bijective" in res.reason
        assert name in res.reason

    def test_semantic_change_reports_first_divergence(self):
        prog = build_app("simple", n=6)
        spmd = CompileSession().compile(prog, Scheme.BASE, 2)
        # A reference whose first statement computes something else: the
        # compiled plan no longer implements it.
        ref = build_app("simple", n=6)
        st = ref.nests[0].body[0]
        ref.nests[0].body[0] = replace(
            st, compute=lambda *vals: 123.456
        )
        res = verify_spmd(spmd, ref)
        assert not res.ok
        div = res.divergence
        assert div is not None
        assert div.array
        assert isinstance(div.index, tuple) and div.index
        assert div.phase not in ("", None)
        assert div.expected != div.actual
        assert "first divergence" in div.describe()

    def test_raise_on_failure_carries_context(self):
        prog = build_app("simple", n=6)
        spmd = CompileSession().compile(prog, Scheme.BASE, 2)
        ref = build_app("simple", n=6)
        st = ref.nests[0].body[0]
        ref.nests[0].body[0] = replace(st, compute=lambda *vals: -1.0)
        res = verify_spmd(spmd, ref)
        with pytest.raises(VerifyError) as ei:
            res.raise_on_failure()
        assert ei.value.context()["app"] == "simple"


class TestVerifyCli:
    def test_verify_command_ok(self, capsys):
        assert main([
            "verify", "--apps", "simple", "--schemes", "base,data",
            "--procs-list", "1,2", "--n", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "ALL OK" in out
        assert "4 points, 4 ok, 0 failed" in out

    def test_verify_command_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["verify", "--apps", "nosuchapp"])

    def test_run_with_verify_flag(self, capsys):
        assert main([
            "run", "simple", "--n", "12", "--procs-list", "1,2",
            "--scale", "32", "--scheme", "base", "--verify",
            "--verify-n", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "semantic verification" in out
