"""The shared grid engine: enumeration, coordinate helpers, and the
incremental layer over the persistent result store."""

import types

import pytest

import repro.apps as apps_pkg
from repro.ir.builder import ProgramBuilder
from repro.pipeline import grid as grid_mod
from repro.pipeline.grid import (
    GridPoint,
    GridResult,
    make_grid,
    point_key,
    point_machine,
    point_program,
    run_grid,
    summarize,
)
from repro.pipeline.store import ResultStore
from tests.conftest import pass_invocations


def _variant_app(coeff):
    """A tiny registrable app; changing ``coeff`` is the test's stand-in
    for editing the app's source (it changes the statement's closure,
    hence the program fingerprint)."""

    def build(n=8, time_steps=2):
        pb = ProgramBuilder("edited", params={"N": n},
                           time_steps=time_steps)
        a = pb.array("A", (n, n), element_size=4)
        b = pb.array("B", (n, n), element_size=4)
        i, j = pb.vars("I", "J")
        pb.nest(
            "add",
            [("J", 0, n - 1), ("I", 0, n - 1)],
            [pb.assign(a(i, j), [b(i, j)], lambda x: coeff * x)],
        )
        return pb.build()

    return types.SimpleNamespace(build=build, __doc__="test app")


GRID_KW = dict(n=8, time_steps=2)


class TestGridSpec:
    """How a grid is specified: ``make_grid``'s enumeration and
    ``GridPoint``'s normalization."""

    def test_pin_decomp(self):
        points = make_grid(["simple", "lu"], ["base", "comp"], [2, 8],
                           n=8, pin_decomp=True)
        # apps outermost, then schemes, then processor counts
        assert [(p.app, p.scheme, p.nprocs) for p in points] == [
            (a, s, n) for a in ("simple", "lu") for s in ("base", "comp")
            for n in (2, 8)]
        assert all(p.decomp_procs == 8 for p in points)

    def test_scheme_normalized(self):
        pt = GridPoint(app="simple", scheme="OPT", nprocs=2)
        assert pt.scheme == "data"
        assert GridPoint(app="simple", scheme="comp_decomp_data",
                         nprocs=2).scheme == "data"

    def test_coord_covers_all_knobs(self):
        a = GridPoint(app="simple", scheme="comp", nprocs=2, n=8)
        b = GridPoint(app="simple", scheme="comp", nprocs=2, n=16)
        assert a.coord() != b.coord()


class TestPointHelpers:
    def test_point_machine_word_bytes(self):
        pt = GridPoint(app="simple", scheme="base", nprocs=4, **GRID_KW)
        prog = point_program(pt)
        machine = point_machine(pt, prog)
        assert machine.word_bytes == min(
            d.element_size for d in prog.arrays.values())
        assert machine.nprocs == 4

    def test_point_key_stable(self):
        pt = GridPoint(app="simple", scheme="comp", nprocs=2, **GRID_KW)
        assert point_key(pt) == point_key(pt)

    @pytest.mark.parametrize("other", [
        GridPoint(app="simple", scheme="data", nprocs=2, **GRID_KW),
        GridPoint(app="simple", scheme="comp", nprocs=4, **GRID_KW),
        GridPoint(app="simple", scheme="comp", nprocs=2, n=16,
                  time_steps=2),
        GridPoint(app="simple", scheme="comp", nprocs=2, n=8,
                  time_steps=2, scale=32),
        GridPoint(app="simple", scheme="comp", nprocs=2,
                  decomp_procs=8, **GRID_KW),
        GridPoint(app="stencil5", scheme="comp", nprocs=2, **GRID_KW),
    ])
    def test_point_key_sensitive(self, other):
        base = GridPoint(app="simple", scheme="comp", nprocs=2, **GRID_KW)
        assert point_key(base) != point_key(other)

    def test_point_key_kind_namespaces(self):
        pt = GridPoint(app="simple", scheme="comp", nprocs=2, **GRID_KW)
        assert point_key(pt, kind="sim") != point_key(pt, kind="verify")


class TestRunGridIncremental:
    def _points(self):
        return make_grid(["simple"], ["base", "comp"], [1, 2], **GRID_KW)

    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_grid(self._points(), store=store, incremental=True)
        agg = summarize(cold)
        assert agg["executed"] == 4 and agg["store_hits"] == 0
        assert store.stats.stores == 4

        warm_store = ResultStore(tmp_path)
        warm = run_grid(self._points(), store=warm_store,
                        incremental=True)
        agg = summarize(warm)
        assert agg["executed"] == 0 and agg["store_hits"] == 4
        # Zero compile/simulate work on the warm rerun.
        assert agg["total_pass_runs"] == 0
        assert all(r.store_hit and not r.pass_runs for r in warm)
        # Served results carry the identical simulation outcome.
        for a, b in zip(cold, warm):
            assert a.total_time == b.total_time
            assert a.n_accesses == b.n_accesses
            assert a.miss_breakdown == b.miss_breakdown
            assert a.store_key == b.store_key

    def test_write_back_without_incremental(self, tmp_path):
        store = ResultStore(tmp_path)
        run_grid(self._points(), store=store, incremental=False)
        assert store.stats.stores == 4
        assert store.stats.hits == store.stats.misses == 0

    def test_no_store_plain_execution(self):
        results = run_grid(self._points()[:1])
        assert len(results) == 1 and results[0].ok
        assert not results[0].store_hit

    def test_app_edit_reexecutes_only_that_app(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setitem(apps_pkg.ALL_APPS, "edited",
                            _variant_app(0.5))
        points = make_grid(["simple", "edited"], ["base", "comp"],
                           [1, 2], **GRID_KW)
        store = ResultStore(tmp_path)
        run_grid(points, store=store, incremental=True)
        assert store.stats.stores == 8

        # "Edit" the app: new closure constant => new fingerprint.
        monkeypatch.setitem(apps_pkg.ALL_APPS, "edited",
                            _variant_app(0.6))
        store2 = ResultStore(tmp_path)
        rerun = run_grid(points, store=store2, incremental=True)
        agg = summarize(rerun)
        assert agg["store_hits"] == 4 and agg["executed"] == 4
        executed = {r.point.app for r in rerun if not r.store_hit}
        assert executed == {"edited"}
        # The stale entries were invalidated coordinate-by-coordinate.
        assert store2.stats.invalidations == 4

    def test_unbuildable_point_isolated(self, tmp_path, monkeypatch):
        # An app whose builder raises: the point gets no store key but
        # still flows to the executor, which isolates the failure.
        def boom(n=8, time_steps=2):
            raise RuntimeError("unbuildable")

        monkeypatch.setitem(apps_pkg.ALL_APPS, "boom",
                            types.SimpleNamespace(build=boom))
        pts = [
            GridPoint(app="simple", scheme="base", nprocs=1, **GRID_KW),
            GridPoint(app="boom", scheme="base", nprocs=1, **GRID_KW),
        ]
        store = ResultStore(tmp_path)
        results = run_grid(pts, store=store, incremental=True)
        assert results[0].ok
        assert not results[1].ok and "unbuildable" in results[1].error
        assert results[1].store_key == ""
        # Only the good point was stored.
        assert store.stats.stores == 1

    def test_failed_and_degraded_not_stored(self, tmp_path,
                                            monkeypatch):
        points = self._points()[:2]
        keys = [point_key(p, locality=False) for p in points]
        fakes = {
            points[0]: GridResult(point=points[0], ok=True, degraded=True,
                                  total_time=1.0),
            points[1]: GridResult(point=points[1], ok=False, error="boom"),
        }

        monkeypatch.setattr(grid_mod, "run_point",
                            lambda point, session, **kw: fakes[point])
        store = ResultStore(tmp_path)
        run_grid(points, store=store, incremental=True)
        assert store.stats.stores == 0
        for p, k in zip(points, keys):
            assert store.get(f"sim:{p.coord()}/loc=False", k) is None
        assert len(store) == 0

    def test_summarize_backward_fields(self):
        results = run_grid(self._points()[:1])
        agg = summarize(results)
        for field in ("points", "ok", "errors", "degraded", "retried",
                      "pass_runs", "pass_hits", "total_pass_runs",
                      "store_hits", "executed"):
            assert field in agg


class TestBatchFacade:
    def test_run_batch_accepts_store(self, tmp_path):
        store = ResultStore(tmp_path)
        pts = [GridPoint(app="simple", scheme="base", nprocs=1,
                         **GRID_KW)]
        run_grid(pts, store=store, incremental=True)
        again = run_grid(pts, store=store, incremental=True)
        assert again[0].store_hit


class TestVerifyGridStore:
    def test_warm_verify_serves_verdicts(self, tmp_path):
        from repro.verify import grid_ok, verify_grid

        store = ResultStore(tmp_path)
        cold = verify_grid(["simple"], ["base", "comp"], [1, 2], n=8,
                           store=store)
        assert grid_ok(cold)
        assert store.stats.stores == 4

        store2 = ResultStore(tmp_path)
        warm = verify_grid(["simple"], ["base", "comp"], [1, 2], n=8,
                           store=store2)
        assert grid_ok(warm)
        assert store2.stats.hits == 4 and store2.stats.misses == 0
        for a, b in zip(cold, warm):
            assert (a.program, a.scheme, a.nprocs) == \
                (b.program, b.scheme, b.nprocs)
            assert a.phases_checked == b.phases_checked
            assert a.elements_checked == b.elements_checked


class TestJournalledRunGrid:
    """run_grid's journal/shutdown layer and the resume through the
    store, in-process."""

    def _points(self):
        return make_grid(["simple"], ["base", "comp", "data"], [1],
                         **GRID_KW)

    def test_journal_records_every_point(self, tmp_path):
        from dataclasses import asdict

        from repro.pipeline.journal import JournalState, JournalWriter

        points = self._points()
        spec = {"points": [asdict(p) for p in points]}
        journal = JournalWriter.create(tmp_path, spec)
        results = run_grid(points, journal=journal)
        journal.end("complete", executed=len(results))
        journal.close()
        state = JournalState.load(tmp_path / f"{journal.run_id}.jsonl")
        state.validate()
        assert state.complete
        assert state.points() == points
        assert sorted(state.finished) == list(range(len(points)))
        for i, r in enumerate(results):
            assert state.finished[i] == r.as_dict()

    def test_store_served_points_are_journaled(self, tmp_path):
        from dataclasses import asdict

        from repro.pipeline.journal import JournalState, JournalWriter

        points = self._points()
        store = ResultStore(tmp_path / "store")
        run_grid(points, store=store)  # populate
        spec = {"points": [asdict(p) for p in points]}
        journal = JournalWriter.create(tmp_path / "journal", spec)
        warm = run_grid(points, store=store, incremental=True,
                        journal=journal)
        journal.close()
        assert all(r.store_hit for r in warm)
        state = JournalState.load(
            tmp_path / "journal" / f"{journal.run_id}.jsonl")
        assert sorted(state.finished) == list(range(len(points)))
        assert all(d["store_hit"] for d in state.finished.values())

    def test_triggered_shutdown_stops_serial_dispatch(self):
        from repro.pipeline.grid import GracefulShutdown

        points = self._points()
        shutdown = GracefulShutdown()
        seen = []

        class Hook:
            """Journal stand-in that pulls the plug mid-run."""
            def point_started(self, i, point):
                pass

            def wave(self, wave, pending):
                pass

            def tick(self):
                pass

            def point_done(self, i, result):
                seen.append(i)
                if len(seen) == 1:
                    shutdown.trigger(signum=15)

        results = run_grid(points, journal=Hook(), shutdown=shutdown)
        # First point finished and was journaled; the rest were never
        # dispatched (absent, not failed) — resume picks them up.
        assert len(results) == 1
        assert seen == [0]

    def test_resume_after_shutdown_completes_the_grid(self, tmp_path):
        from repro.pipeline.grid import GracefulShutdown

        points = self._points()
        store = ResultStore(tmp_path)
        shutdown = GracefulShutdown()

        class Hook:
            def __init__(self):
                self.done = {}

            def point_started(self, i, point):
                pass

            def wave(self, wave, pending):
                pass

            def tick(self):
                pass

            def point_done(self, i, result):
                self.done[i] = result
                if len(self.done) == 1:
                    shutdown.trigger(signum=15)

        hook = Hook()
        partial = run_grid(points, store=store, journal=hook,
                           shutdown=shutdown)
        assert len(partial) == 1
        # A resume is the same grid against the store, incremental on:
        # the stored point is served, the abandoned ones execute.
        resumed = run_grid(points, store=store, incremental=True)
        assert [r.store_hit for r in resumed] == [True, False, False]
        reference = run_grid(points)
        got, want = summarize(resumed), summarize(reference)
        assert (got["store_hits"], got["executed"]) == (1, 2)
        for key in ("points", "ok", "errors", "degraded", "retried"):
            assert got[key] == want[key], key
        for r, ref in zip(resumed, reference):
            assert r.point == ref.point
            for field in ("ok", "total_time", "n_accesses",
                          "miss_breakdown", "locality", "degraded",
                          "attempts"):
                assert getattr(r, field) == getattr(ref, field), field
            # A served point carries no pass counters; an executed one
            # invokes each pass as often as the uninterrupted run did.
            if not r.store_hit:
                assert (pass_invocations(r.as_dict())
                        == pass_invocations(ref.as_dict()))

    def test_install_restores_signal_handlers(self):
        import signal as signal_mod

        from repro.pipeline.grid import GracefulShutdown

        before = signal_mod.getsignal(signal_mod.SIGTERM)
        shutdown = GracefulShutdown()
        with shutdown.install():
            assert signal_mod.getsignal(signal_mod.SIGTERM) != before
        assert signal_mod.getsignal(signal_mod.SIGTERM) == before

    def test_second_trigger_expires_drain(self):
        from repro.pipeline.grid import GracefulShutdown

        shutdown = GracefulShutdown(drain_seconds=3600.0)
        shutdown.trigger(signum=2)
        assert not shutdown.drain_expired()
        shutdown.trigger(signum=2)  # impatient second Ctrl-C
        assert shutdown.drain_expired()
