"""The compile pipeline: fingerprints, artifact cache, sessions, batch.

Covers fingerprint stability across equivalent ``Program`` builds and
invalidation on any content or configuration change; the session's
in-memory LRU; a warm-cache ``compile_all`` performing zero stage runs
(asserted via obs metrics); and the parallel batch driver matching the
serial path point-for-point.
"""

import pytest

from repro import obs
from repro.apps import build_app, lu, simple
from repro.codegen.spmd import Scheme, parse_scheme, scheme_short_name
from repro.pipeline import (
    CompileSession,
    fingerprint_program,
    reset_session,
    session as session_mod,
)
from repro.pipeline.grid import (
    GridPoint,
    make_grid,
    run_grid,
    summarize,
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


class TestFingerprint:
    def test_stable_across_equivalent_builds(self):
        a = simple.build(n=16, time_steps=2)
        b = simple.build(n=16, time_steps=2)
        assert a is not b
        assert fingerprint_program(a) == fingerprint_program(b)

    def test_changes_with_size_and_time_steps(self):
        base = fingerprint_program(simple.build(n=16, time_steps=2))
        assert fingerprint_program(simple.build(n=8, time_steps=2)) != base
        assert fingerprint_program(simple.build(n=16, time_steps=3)) != base

    def test_changes_with_compute_semantics(self):
        from tests.conftest import make_two_nest_program

        def variant(op):
            prog = make_two_nest_program()
            st = prog.nests[0].body[0]
            from dataclasses import replace

            prog.nests[0].body[0] = replace(st, compute=op)
            return prog

        fp_add = fingerprint_program(variant(lambda x: x + 1))
        fp_mul = fingerprint_program(variant(lambda x: x * 2))
        fp_add2 = fingerprint_program(variant(lambda x: x + 1))
        assert fp_add != fp_mul
        assert fp_add == fp_add2

    def test_pass_key_invalidation(self):
        session = CompileSession()
        session.compile(simple.build(n=8), Scheme.BASE, 4)
        session.compile(simple.build(n=8), Scheme.BASE, 4)
        assert session.stats()["runs"] == {"restructure": 1, "spmd": 1}
        # scheme / nprocs reach the codegen key; the program's content
        # reaches every key.
        session.compile(simple.build(n=8), Scheme.BASE, 8)
        session.compile(simple.build(n=8), Scheme.COMP_DECOMP, 4)
        assert session.stats()["runs"]["spmd"] == 3
        session.compile(simple.build(n=10), Scheme.BASE, 4)
        assert session.stats()["runs"]["restructure"] == 2
        # A pinned decomposition processor count reaches the
        # decomposition key (and, through it, every downstream key).
        session.compile(simple.build(n=8), Scheme.COMP_DECOMP, 4,
                        decomp_nprocs=8)
        assert session.stats()["runs"]["decompose"] == 2
        assert session.stats()["runs"]["spmd"] == 5


class TestArtifactCache:
    def test_lru_eviction(self, monkeypatch):
        """The session's artifact cache is an LRU: a hit refreshes an
        entry, and the least recently used one is evicted first.  (LU
        restructures to a program with its own content, so each
        restructure stores exactly one entry.)"""
        monkeypatch.setattr(session_mod, "CACHE_CAPACITY", 2)
        session = CompileSession()

        def restructure(n):
            session.restructure(lu.build(n=n))
            return session.stats()["runs"]["restructure"]

        assert restructure(6) == 1
        assert restructure(8) == 2
        assert restructure(6) == 2  # hit: refreshes n=6
        assert session.stats()["hits"] == {"restructure": 1}
        assert restructure(10) == 3  # evicts n=8
        assert restructure(6) == 3  # still cached
        assert session.stats()["hits"] == {"restructure": 2}
        assert restructure(8) == 4  # evicted: runs again
        assert session.stats()["hits"] == {"restructure": 2}


class TestSessionMemoization:
    def test_restructure_no_attribute_mutation(self):
        prog = simple.build(n=16, time_steps=2)
        session = CompileSession()
        r = session.restructure(prog)
        assert not hasattr(prog, "_restructured")
        assert not hasattr(r, "_restructured")

    def test_restructure_memoized_by_content(self):
        session = CompileSession()
        r1 = session.restructure(simple.build(n=16, time_steps=2))
        r2 = session.restructure(simple.build(n=16, time_steps=2))
        assert r1 is r2
        assert session.restructure(r1) is r1  # fixed point

    def test_no_cache_session_still_compiles(self):
        session = CompileSession(cache=False)
        prog = simple.build(n=8)
        spmd = session.compile(prog, Scheme.COMP_DECOMP, 4)
        assert spmd.nprocs == 4
        runs = {"restructure": 1, "decompose": 1, "layout": 1, "spmd": 1}
        assert session.stats() == {"runs": runs, "hits": {}}
        # Every compile does full work.
        session.compile(simple.build(n=8), Scheme.COMP_DECOMP, 4)
        assert session.stats() == {
            "runs": {k: 2 * v for k, v in runs.items()}, "hits": {}}


class TestWarmCompileAll:
    def test_second_compile_all_runs_zero_passes(self):
        session = CompileSession()
        session.compile_all(simple.build(n=12, time_steps=2), nprocs=4)
        before = session.stats()

        obs.enable(reset=True)
        cp = session.compile_all(
            simple.build(n=12, time_steps=2), nprocs=4
        )
        after = session.stats()
        assert after["runs"] == before["runs"]
        for name in ("restructure", "decompose", "layout", "spmd"):
            assert (after["hits"].get(name, 0)
                    > before["hits"].get(name, 0)), name
        # No real compiler work was traced either.
        names = {s.name for s in obs.collector().spans}
        assert "compiler.restructure" not in names
        assert "decomp.greedy" not in names
        assert "codegen.spmd" not in names
        # The result is still complete and self-consistent.
        assert cp.comp_decomp.decomposition is cp.decomposition

    def test_wrappers_share_default_session(self):
        from repro.compiler import compile_all, restructure_program
        from repro.pipeline import get_session

        compile_all(simple.build(n=12, time_steps=2), nprocs=4)
        before = get_session().stats()
        compile_all(simple.build(n=12, time_steps=2), nprocs=4)
        after = get_session().stats()
        assert after["runs"] == before["runs"]
        assert after["hits"]["spmd"] > before["hits"].get("spmd", 0)
        r1 = restructure_program(simple.build(n=12, time_steps=2))
        assert restructure_program(r1) is r1


class TestPerfbenchHooks:
    @staticmethod
    def tracer():
        import importlib.util
        import time
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
        spec = importlib.util.spec_from_file_location("_perfbench_layers",
                                                      path)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        return layers.LayerTracer(time.perf_counter)

    def test_layer_tracer_sees_stage_calls(self):
        """The repo benchmark times the compiler by wrapping
        ``CompileSession.compile`` and the ``decompose_program`` and
        ``generate_spmd`` globals of ``repro.pipeline.passes``; a
        refactor that stops calling through them must fail here."""
        tracer = self.tracer()
        tracer.install()
        try:
            session = CompileSession()
            for _ in range(2):  # cold, then warm
                session.compile(simple.build(n=8), Scheme.COMP_DECOMP, 4)
        finally:
            tracer.uninstall()
        assert tracer.calls["pipeline.compile"] == 2
        assert tracer.calls["decomp.decompose"] == 1
        assert tracer.calls["codegen.spmd"] == 1

    def test_layer_tracer_sees_simulator_calls(self):
        """The benchmark times the simulator by wrapping the names
        ``repro.machine.simulate`` looks up (``program_traces``,
        ``classify_accesses``, ``local_miss_mask``, ``per_proc_cycles``,
        ``phase_time``), ``collect_locality`` and the coherence
        module's ``assoc_lru_hits``, and counts the accesses classified
        by the length of ``hit``; a refactor that renames or bypasses
        one must fail here."""
        from dataclasses import replace

        import repro.machine
        from repro.machine.cache import CacheConfig

        machine = repro.machine.scaled_dash(4, scale=64)
        machine = replace(machine, cache=CacheConfig(
            machine.cache.size_bytes, machine.cache.line_bytes, assoc=2))
        spmd = CompileSession().compile(simple.build(n=8, time_steps=3),
                                        Scheme.COMP_DECOMP, 4)
        tracer = self.tracer()
        tracer.install()
        try:
            # Looked up at the call, as the tracer wraps the module's.
            res = repro.machine.simulate(spmd, machine, detail=True,
                                         locality=True)
        finally:
            tracer.uninstall()
        for layer in ("simulate", "trace", "classify", "numa", "cost",
                      "locality", "assoc_lru"):
            assert tracer.calls[f"machine.{layer}"] > 0, layer
        # Two rounds (cold and steady) of every access.
        assert tracer.counts["machine.classify_accesses"] == (
            2 * res.n_accesses)


class TestBatch:
    GRID = dict(apps=["simple"], schemes=["base", "comp", "data"],
                procs=[1, 4], n=8, scale=32)

    def test_parallel_matches_serial(self):
        points = make_grid(**self.GRID)
        assert len(points) == 6
        serial = run_grid(points, jobs=1)
        parallel = run_grid(points, jobs=4)
        assert all(r.ok for r in serial), [r.error for r in serial]
        assert all(r.ok for r in parallel), [r.error for r in parallel]
        for s, p in zip(serial, parallel):
            assert s.point == p.point
            assert s.total_time == p.total_time
            assert s.n_accesses == p.n_accesses
            assert s.miss_breakdown == p.miss_breakdown

    def test_error_isolation(self):
        points = [
            GridPoint(app="simple", scheme="base", nprocs=2, n=8),
            GridPoint(app="nosuchapp", scheme="base", nprocs=2, n=8),
            GridPoint(app="simple", scheme="comp", nprocs=2, n=8),
        ]
        results = run_grid(points, jobs=1)
        assert [r.ok for r in results] == [True, False, True]
        assert "nosuchapp" in results[1].error
        agg = summarize(results)
        assert agg["errors"] == 1 and agg["ok"] == 2

    def test_serial_shared_session_reuses_artifacts(self):
        points = make_grid(**self.GRID)
        results = run_grid(points, jobs=1)
        agg = summarize(results)
        # restructure runs once for the app, not once per point.
        assert agg["pass_runs"].get("restructure", 0) == 1
        assert agg["pass_hits"].get("restructure", 0) == len(points) - 1

    def test_pinned_decomposition(self):
        points = make_grid(apps=["simple"], schemes=["data"],
                           procs=[1, 4], n=8, pin_decomp=True)
        assert all(p.decomp_procs == 4 for p in points)
        results = run_grid(points, jobs=1)
        assert all(r.ok for r in results)
        agg = summarize(results)
        assert agg["pass_runs"].get("decompose", 0) == 1


class TestSchemeTable:
    def test_aliases_resolve(self):
        assert parse_scheme("base") is Scheme.BASE
        assert parse_scheme("comp") is Scheme.COMP_DECOMP
        assert parse_scheme("comp_decomp") is Scheme.COMP_DECOMP
        assert parse_scheme("data") is Scheme.COMP_DECOMP_DATA
        assert parse_scheme("comp_decomp_data") is Scheme.COMP_DECOMP_DATA
        assert parse_scheme("comp decomp + data transform") is \
            Scheme.COMP_DECOMP_DATA
        assert parse_scheme(Scheme.BASE) is Scheme.BASE

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            parse_scheme("turbo")

    def test_short_names_round_trip(self):
        for scheme in Scheme:
            assert parse_scheme(scheme_short_name(scheme)) is scheme


class TestBuildApp:
    def test_forwards_accepted_kwargs(self):
        prog = build_app("simple", n=8, time_steps=3)
        assert prog.time_steps == 3

    def test_none_means_default(self):
        prog = build_app("lu", n=8, time_steps=None)
        assert prog.params["N"] == 8

    def test_rejects_unknown_kwarg(self):
        with pytest.raises(ValueError, match="does not accept"):
            build_app("lu", time_steps=3)

    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError, match="unknown app"):
            build_app("nosuchapp", n=8)
