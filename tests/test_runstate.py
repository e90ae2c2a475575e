"""Live run state: the journal writer's heartbeat tick (rate
limiting, best-effort emission) and the reader-side status snapshot
(run-state classification, EWMA latency → ETA, per-scheme matrix,
cache-hit rate) derived from the journal alone, plus the report
payload that stitches the journal's records and heartbeats together."""

import os
import subprocess
import time
from dataclasses import asdict

import pytest

from repro import faults
from repro.errors import JournalError
from repro.obs.runstate import (
    build_report,
    load_status,
    pid_alive,
    status_from_state,
)
from repro.pipeline.grid import GridPoint, GridResult
from repro.pipeline.journal import (
    JournalState,
    JournalWriter,
    journal_dir,
    read_records,
    rss_bytes,
)


def _points():
    return [
        GridPoint(app="simple", scheme=s, nprocs=p, n=8, time_steps=2)
        for s in ("base", "comp") for p in (1, 4)
    ]


def _spec(points):
    return {"points": [asdict(p) for p in points],
            "degrade": True, "locality": False}


def _result(point, elapsed=0.5, **kw):
    return GridResult(point=point, ok=kw.pop("ok", True),
                      total_time=123.0, n_accesses=42,
                      miss_breakdown={"cold": 7}, elapsed=elapsed, **kw)


def _dead_pid():
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


class TestHelpers:
    def test_rss_bytes_reports_something_plausible(self):
        rss = rss_bytes()
        assert rss is None or rss > 1_000_000  # >1 MB for a python proc

    def test_pid_alive(self):
        assert pid_alive(None) is None
        assert pid_alive(0) is None
        assert pid_alive(os.getpid()) is True
        assert pid_alive(_dead_pid()) is False


class TestJournalTick:
    """The journal writer's own heartbeats: rate-limited, liveness
    only, best effort."""

    def _load(self, tmp_path, writer):
        return JournalState.load(tmp_path / f"{writer.run_id}.jsonl")

    def test_first_tick_lands_at_once(self, tmp_path):
        writer = JournalWriter.create(tmp_path, _spec(_points()),
                                      heartbeat=1000)
        writer.tick()
        writer.close()
        state = self._load(tmp_path, writer)
        assert state.heartbeats == 1
        hb = state.last_heartbeat
        assert set(hb) == {"type", "t", "pid", "rss"}
        assert hb["pid"] == os.getpid()

    def test_tick_is_rate_limited(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points),
                                      heartbeat=1000)
        writer.tick()                        # lands
        writer.tick()                        # inside the interval
        writer.point_started(0, points[0])   # not due at an append either
        writer.close()
        assert self._load(tmp_path, writer).heartbeats == 1

        off = JournalWriter.create(tmp_path, _spec(points))  # none
        off.tick()
        off.point_started(0, points[0])
        off.close()
        assert self._load(tmp_path, off).heartbeats == 0

    def test_due_heartbeat_lands_at_an_append(self, tmp_path):
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points),
                                      heartbeat=0.05)
        writer.tick()
        time.sleep(0.06)
        writer.point_started(0, points[0])
        writer.close()
        path = tmp_path / f"{writer.run_id}.jsonl"
        kinds = [r["type"] for r in read_records(path)[0]]
        assert kinds == ["header", "heartbeat", "start", "heartbeat"]

    def test_failed_tick_is_counted(self, tmp_path):
        writer = JournalWriter.create(tmp_path, _spec(_points()),
                                      heartbeat=1000)
        faults.configure("seed=1,disk.enospc=1.0")
        try:
            writer.tick()  # the failure must not propagate
        finally:
            faults.configure(None)
        writer.close()
        # The tick's one heartbeat was attempted and lost: an error,
        # no append, and no heartbeat record in the journal.
        assert writer.errors == 1
        assert writer.appends == 1  # the header
        assert self._load(tmp_path, writer).heartbeats == 0

    def test_heartbeats_land_in_journal_and_series(self, tmp_path):
        points = _points()
        jdir = journal_dir(tmp_path)
        writer = JournalWriter.create(jdir, _spec(points),
                                      heartbeat=1000, jobs=2)
        writer.wave(1, pending=4)  # the first tick lands here
        writer.point_started(0, points[0])
        writer.point_done(0, _result(points[0]))
        writer.close()

        state = JournalState.load(jdir / f"{writer.run_id}.jsonl")
        assert state.heartbeats == 1
        st = status_from_state(state)
        assert st.jobs == 2 and st.wave == 1  # header and wave record
        # The report's series: progress from the records, rss from
        # the heartbeats.
        series = build_report(tmp_path, writer.run_id)["series"]
        assert series["samples"] == 1
        assert series["curves"]["finished"][-1][1] == 1.0
        if state.last_heartbeat["rss"] is not None:
            assert len(series["curves"]["rss_mb"]) == 1


class TestStatusFromState:
    def _journal(self, tmp_path, points=None):
        points = points if points is not None else _points()
        return points, JournalWriter.create(tmp_path, _spec(points))

    def _load(self, tmp_path, writer):
        return JournalState.load(tmp_path / f"{writer.run_id}.jsonl")

    def test_finished_run(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.wave(1, len(points))
        for i, p in enumerate(points):
            writer.point_started(i, p)
            writer.point_done(i, _result(p))
        writer.end("complete", executed=len(points))
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.state == "finished"
        assert st.total == 4 and st.finished == 4 and st.ok == 4
        assert st.progress == 1.0 and st.eta is None
        assert st.in_flight == []
        # Every (app, scheme) cell complete.
        assert st.scheme_matrix == {"simple": {"base": [2, 2],
                                               "comp": [2, 2]}}

    def test_running_run_with_in_flight_and_eta(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.wave(1, len(points))
        for i in (0, 1):
            writer.point_started(i, points[i])
        writer.point_done(0, _result(points[0], elapsed=1.0))
        writer.point_done(1, _result(points[1], elapsed=2.0))
        writer.point_started(2, points[2])
        writer.heartbeat(jobs=2, finished=2)
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.state == "running"  # our (alive) pid wrote the header
        assert st.finished == 2
        assert st.in_flight == [{"i": 2, "label": points[2].label()}]
        # EWMA over executed latencies in journal order:
        # 1.0 then 0.25*2.0 + 0.75*1.0 = 1.25; two points remain.
        assert st.ewma_latency == pytest.approx(1.25)
        assert st.eta == pytest.approx(2 * 1.25 / 2)  # jobs=2 heartbeat
        assert st.heartbeat_age is not None

    def test_store_hits_excluded_from_ewma(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.point_done(0, _result(points[0], elapsed=500.0,
                                     store_hit=True))
        writer.point_done(1, _result(points[1], elapsed=1.0))
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.store_hits == 1 and st.executed == 1
        assert st.ewma_latency == pytest.approx(1.0)

    def test_cache_hit_rate(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.point_done(0, _result(points[0], pass_runs={"sim": 3},
                                     pass_hits={"sim": 1}))
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.cache_hit_rate == pytest.approx(0.25)

    def test_interrupted_via_end_record(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.point_done(0, _result(points[0]))
        writer.end("interrupted", executed=1)
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.state == "interrupted"

    def test_interrupted_via_dead_pid(self, tmp_path):
        """SIGKILL shape: no end record, driver pid gone."""
        points, writer = self._journal(tmp_path)
        writer.point_started(0, points[0])
        writer.point_started(1, points[1])
        writer.point_done(0, _result(points[0]))
        writer.heartbeat(pid=_dead_pid(), finished=1)
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.state == "interrupted"
        assert st.pid_alive is False
        assert [e["i"] for e in st.in_flight] == [1]

    def test_stale_when_heartbeat_is_old(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.heartbeat(finished=0)  # pid in header is us: alive
        writer.close()
        st = status_from_state(self._load(tmp_path, writer),
                               now=time.time() + 60, stale_after=15.0)
        assert st.state == "stale"

    @pytest.mark.parametrize("jobs, state", [(1, "running"),
                                             (2, "stale")])
    def test_long_point_in_flight(self, tmp_path, jobs, state):
        """A serial driver writes nothing while its point runs, so an
        old heartbeat with a point in flight and a live pid is still a
        running run; a parallel driver heartbeats while it waits, so
        the same silence from it reads stale."""
        points = _points()
        writer = JournalWriter.create(tmp_path, _spec(points), jobs=jobs)
        writer.point_started(0, points[0])
        writer.heartbeat()  # pid is us: alive
        writer.close()
        st = status_from_state(self._load(tmp_path, writer),
                               now=time.time() + 60, stale_after=15.0)
        assert st.state == state

    def test_counter_heartbeats_of_older_journals(self, tmp_path):
        """Older drivers wrote jobs, wave and progress counters into
        every heartbeat; such a journal reads the same status."""
        points, writer = self._journal(tmp_path)
        writer.wave(1, len(points))
        for i in (0, 1, 2):
            writer.point_started(i, points[i])
        writer.point_done(0, _result(points[0], elapsed=1.0))
        writer.point_done(1, _result(points[1], elapsed=1.0))
        writer.heartbeat(wave=1, jobs=2, total=4, dispatched=3,
                         finished=2, retried=0, degraded=0, errors=0,
                         store_hits=0, in_flight=[2], rss=50_000_000)
        writer.close()
        st = status_from_state(self._load(tmp_path, writer))
        assert st.state == "running"
        assert (st.jobs, st.wave, st.waves) == (2, 1, 1)
        assert st.finished == 2 and st.executed == 2
        assert st.in_flight == [{"i": 2, "label": points[2].label()}]
        assert st.eta == pytest.approx(2 * 1.0 / 2)
        assert st.heartbeats == 1 and st.rss == 50_000_000

    def test_torn_tail_and_damage_surfaced(self, tmp_path):
        points, writer = self._journal(tmp_path)
        writer.point_done(0, _result(points[0]))
        writer.close()
        path = tmp_path / f"{writer.run_id}.jsonl"
        with open(path, "a") as fh:
            fh.write('{"type": "done", "i": 1, "resu')
        st = status_from_state(JournalState.load(path))
        assert st.torn_tail
        assert st.finished == 1


class TestLoadStatusAndReport:
    def _store_with_run(self, tmp_path, heartbeats=True):
        store = tmp_path / "store"
        jdir = journal_dir(store)
        points = _points()
        writer = JournalWriter.create(jdir, _spec(points),
                                      heartbeat=0.05 if heartbeats else 0)
        writer.wave(1, len(points))
        for i, p in enumerate(points):
            writer.point_started(i, p)
            writer.point_done(i, _result(p, elapsed=0.01 * (i + 1)))
            time.sleep(0.06)  # past the heartbeat interval → extra beats
        writer.end("complete", executed=len(points))
        writer.close()
        return store, writer.run_id

    def test_load_status_resolves_latest(self, tmp_path):
        store, run_id = self._store_with_run(tmp_path)
        st = load_status(store, "latest")
        assert st.run_id == run_id
        assert st.state == "finished"
        assert load_status(store, run_id).run_id == run_id

    def test_load_status_missing_run_raises(self, tmp_path):
        with pytest.raises(JournalError):
            load_status(tmp_path / "no-store", "latest")

    def test_build_report_payload(self, tmp_path):
        store, run_id = self._store_with_run(tmp_path)
        payload = build_report(store, "latest")
        assert payload["schema"] == 1
        assert payload["run_id"] == run_id
        assert payload["status"]["state"] == "finished"
        assert "spec" not in payload["header"]
        assert len(payload["points"]) == 4
        assert payload["failures"] == []
        # Timeline is origin-relative and monotone from zero.
        ts = [e["t"] for e in payload["timeline"]]
        assert ts and ts[0] == 0.0 and ts == sorted(ts)
        kinds = {e["type"] for e in payload["timeline"]}
        assert {"wave", "start", "done", "heartbeat"} <= kinds
        # The heartbeats became plottable curves.
        assert payload["series"]["samples"] >= 2
        finished_curve = payload["series"]["curves"]["finished"]
        assert finished_curve[-1][1] == 4.0
        import json
        json.dumps(payload)  # --json and --html render the same artifact

    def test_report_without_series_file(self, tmp_path):
        # A run that never heartbeated (--heartbeat 0) still has the
        # progress curves its records imply, but no rss curve.
        store, run_id = self._store_with_run(tmp_path, heartbeats=False)
        payload = build_report(store, "latest")
        assert payload["series"]["samples"] == 0
        curves = payload["series"]["curves"]
        assert "rss_mb" not in curves
        assert curves["finished"][-1][1] == 4.0
        assert curves["dispatched"][-1][1] == 4.0

    def test_progress_curves_count_records(self, tmp_path):
        """Curves count the start/done records from the timeline's
        origin: errors and store hits apart, and a point journaled
        twice (served again by a resume) finishes once."""
        store = tmp_path / "store"
        points = _points()
        writer = JournalWriter.create(journal_dir(store), _spec(points))
        for i in range(3):
            writer.point_started(i, points[i])
        writer.point_done(0, _result(points[0]))
        writer.point_done(1, _result(points[1], ok=False, attempts=3))
        writer.point_done(2, _result(points[2], degraded=True,
                                     attempts=2))
        writer.point_done(3, _result(points[3], store_hit=True))
        writer.point_done(0, _result(points[0], store_hit=True))
        writer.close()
        payload = build_report(store, "latest")
        curves = payload["series"]["curves"]
        assert {k: v[-1][1] for k, v in curves.items()} == {
            "dispatched": 3.0, "finished": 4.0, "errors": 1.0,
            "store_hits": 2.0}
        assert [t for t, _ in curves["finished"]] == \
            [e["t"] for e in payload["timeline"]]
        assert payload["timeline"][0]["t"] == 0.0
