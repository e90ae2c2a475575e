"""Cross-process telemetry aggregation (PR-4): snapshot freezing,
clock-skew correction, and the multi-lane Chrome trace merge.

The schema checks here are the exporter's contract with trace viewers:
every event carries the required keys with the right types, timestamps
are monotonic within each lane, and worker lanes never interleave PIDs.
"""

import json
import pickle

import pytest

from repro import obs
from repro.obs import agg
from repro.obs.agg import MergedTrace, clock_offset, snapshot
from repro.obs.export import collector_state, lane_trace_events
from repro.pipeline import reset_session
from repro.pipeline.grid import GridPoint, merged_trace, run_grid


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.disable()
    obs.reset()
    reset_session()
    yield
    obs.disable()
    obs.reset()
    reset_session()


def _record(counter="work.done"):
    """One tiny recording, frozen into a snapshot."""
    obs.enable(reset=True)
    with obs.span("outer", cat="test", who="x") as sp:
        sp.add("items", 3)
        with obs.span("inner", cat="test"):
            obs.event("tick", cat="test", n=1)
        obs.inc(counter)
    snap = agg.snapshot()
    obs.disable()
    obs.reset()
    return snap


REQUIRED_KEYS = {"name", "ph", "pid", "tid"}
PHASES = {"M", "X", "i", "C"}


def _check_chrome_schema(trace):
    """Structural validation of one Chrome trace-event object."""
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    last_ts = {}
    for ev in trace["traceEvents"]:
        assert REQUIRED_KEYS <= set(ev), ev
        assert ev["ph"] in PHASES, ev
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        if ev["ph"] == "M":
            assert ev["name"] == "process_name"
            assert isinstance(ev["args"]["name"], str)
            continue
        assert isinstance(ev["ts"], (int, float))
        if ev["ph"] == "X":
            assert isinstance(ev["dur"], (int, float))
        if ev["ph"] == "i":
            assert ev["s"] == "t"
        # Timed events must be monotonic within their lane.
        assert ev["ts"] >= last_ts.get(ev["pid"], float("-inf"))
        last_ts[ev["pid"]] = ev["ts"]


class TestSnapshot:
    def test_schema_and_identity(self):
        snap = _record()
        assert snap["schema"] == agg.SNAPSHOT_SCHEMA
        assert isinstance(snap["pid"], int)
        assert snap["wall_ref"] > 0 and snap["perf_ref"] >= 0
        assert [s["name"] for s in snap["spans"]] == ["outer", "inner"]
        assert snap["metrics"]["counters"] == {"work.done": 1}

    def test_pid_override(self):
        snap = _record()
        again = agg.snapshot(pid=4242)
        assert again["pid"] == 4242
        assert snap["pid"] != 4242

    def test_pickle_and_json_round_trip(self):
        snap = _record()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert json.loads(json.dumps(snap)) == snap


class TestClockOffset:
    def test_offset_maps_worker_onto_reference_timeline(self):
        # Worker perf clock started 40s after the reference's: a worker
        # instant t reads t+40 on the reference clock.
        worker = {"wall_ref": 100.0, "perf_ref": 10.0}
        ref = {"wall_ref": 100.0, "perf_ref": 50.0}
        assert clock_offset(worker, ref) == pytest.approx(40.0)
        assert clock_offset(ref, worker) == pytest.approx(-40.0)

    def test_offset_is_reference_time_invariant(self):
        # Reading the pair later shifts both refs equally.
        worker = {"wall_ref": 107.5, "perf_ref": 17.5}
        ref = {"wall_ref": 103.25, "perf_ref": 53.25}
        assert clock_offset(worker, ref) == pytest.approx(40.0)

    def test_same_process_offset_is_zero(self):
        snap = _record()
        assert clock_offset(snap, snap) == 0.0


class TestMergedTrace:
    def _two_worker_trace(self):
        parent = _record("driver.work")
        mt = MergedTrace(parent=parent)
        w1 = dict(_record("w.count"), pid=1111)
        w2 = dict(_record("w.count"), pid=2222)
        mt.add_worker(w1, tags={"attempts": 2, "retried": True})
        mt.add_worker(w2, tags={"attempts": 1, "retried": False})
        return parent, mt

    def test_schema_valid_and_lanes_disjoint(self):
        parent, mt = self._two_worker_trace()
        trace = mt.to_chrome_trace()
        _check_chrome_schema(trace)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {parent["pid"], 1111, 2222}
        metas = {e["pid"]: e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"}
        assert metas[parent["pid"]] == "driver"
        assert metas[1111] == "worker-1111"
        assert metas[2222] == "worker-2222"
        # Every lane carries its own complete span set.
        for pid in (1111, 2222):
            lane = [e for e in trace["traceEvents"]
                    if e["pid"] == pid and e["ph"] == "X"]
            assert {e["name"] for e in lane} == {"outer", "inner"}

    def test_tags_land_on_root_spans_only(self):
        _, mt = self._two_worker_trace()
        trace = mt.to_chrome_trace()
        roots = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "outer"
                 and e["pid"] == 1111]
        inner = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "inner"
                 and e["pid"] == 1111]
        assert roots[0]["args"]["attempts"] == 2
        assert roots[0]["args"]["retried"] is True
        assert "attempts" not in inner[0]["args"]

    def test_tagging_does_not_mutate_snapshot(self):
        snap = dict(_record(), pid=1111)
        before = json.dumps(snap, sort_keys=True)
        mt = MergedTrace(parent=_record())
        mt.add_worker(snap, tags={"attempts": 3})
        mt.to_chrome_trace()
        assert json.dumps(snap, sort_keys=True) == before

    def test_schema_mismatch_rejected(self):
        mt = MergedTrace(parent=_record())
        bad = dict(_record(), schema=99)
        with pytest.raises(ValueError, match="schema"):
            mt.add_worker(bad)

    def test_skew_correction_applied_to_worker_lane(self):
        parent = _record()
        worker = dict(_record(), pid=1111)
        # Pretend the worker's perf clock started 1s later.
        worker["wall_ref"] = parent["wall_ref"]
        worker["perf_ref"] = parent["perf_ref"] - 1.0
        mt = MergedTrace(parent=parent)
        mt.add_worker(worker)
        trace = mt.to_chrome_trace()
        raw_start = worker["spans"][0]["start"]
        shifted = [e for e in trace["traceEvents"]
                   if e["pid"] == 1111 and e["ph"] == "X"
                   and e["name"] == "outer"]
        expect = (raw_start + 1.0 - parent["t0"]) * 1e6
        assert shifted[0]["ts"] == pytest.approx(expect)

    def test_merged_metrics_provenance(self):
        _, mt = self._two_worker_trace()
        counters = mt.merged_metrics()["counters"]
        assert counters["w.count"]["total"] == 2
        assert counters["w.count"]["lanes"] == {
            "worker-1111": 1, "worker-2222": 1,
        }
        assert counters["driver.work"]["lanes"] == {"driver": 1}
        assert mt.counter_total("w.count") == 2
        assert mt.counter_total("absent") == 0

    def test_same_pid_snapshots_share_a_lane(self):
        mt = MergedTrace(parent=_record())
        mt.add_worker(dict(_record("w.count"), pid=1111))
        mt.add_worker(dict(_record("w.count"), pid=1111))
        assert mt.worker_pids() == [1111]
        trace = mt.to_chrome_trace()
        _check_chrome_schema(trace)
        metas = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["pid"] == 1111]
        assert len(metas) == 1
        assert mt.merged_metrics()["counters"]["w.count"]["lanes"] == {
            "worker-1111": 2,
        }

    def test_write_round_trips_through_json(self, tmp_path):
        _, mt = self._two_worker_trace()
        path = mt.write(str(tmp_path / "trace.json"))
        with open(path) as fh:
            loaded = json.load(fh)
        _check_chrome_schema(loaded)


class TestSingleLaneExport:
    def test_lane_events_honour_pid_and_shift(self):
        snap = _record()
        events = lane_trace_events(snap, pid=7, tid=3, shift=2.0,
                                   process_name="lane7")
        assert events[0]["ph"] == "M"
        for ev in events:
            assert ev["pid"] == 7
        xs = [e for e in events if e["ph"] == "X"]
        base = lane_trace_events(snap, pid=7)
        xs0 = [e for e in base if e["ph"] == "X"]
        assert xs[0]["ts"] - xs0[0]["ts"] == pytest.approx(2e6)

    def test_collector_state_matches_snapshot_body(self):
        obs.enable(reset=True)
        with obs.span("only", cat="test"):
            obs.inc("c")
        state = collector_state()
        assert [s["name"] for s in state["spans"]] == ["only"]
        assert state["metrics"]["counters"] == {"c": 1}
        obs.disable()
        obs.reset()


class TestBatchIntegration:
    def test_parallel_batch_ships_per_point_snapshots(self):
        points = [
            GridPoint(app="simple", scheme=s, nprocs=p, n=8)
            for s in ("base", "comp") for p in (1, 2)
        ]
        obs.enable(reset=True)
        results = run_grid(points, jobs=2, cache=False,
                           collect_telemetry=True)
        mt = merged_trace(results)
        obs.disable()
        assert all(r.ok for r in results)
        assert all(r.telemetry is not None for r in results)
        assert len(mt.worker_pids()) >= 1
        trace = mt.to_chrome_trace()
        _check_chrome_schema(trace)
        # Every worker PID contributes spans, each tagged with the
        # hardening verdict.
        for pid in mt.worker_pids():
            lane = [e for e in trace["traceEvents"]
                    if e["pid"] == pid and e["ph"] == "X"
                    and e["name"] == "batch.point"]
            assert lane
            assert all("attempts" in e["args"] and "ok" in e["args"]
                       for e in lane)

    def test_serial_batch_records_into_caller_collector(self):
        points = [GridPoint(app="simple", scheme="base", nprocs=1, n=8)]
        obs.enable(reset=True)
        results = run_grid(points, jobs=1, cache=False,
                           collect_telemetry=True)
        mt = merged_trace(results)
        obs.disable()
        assert results[0].telemetry is None  # no per-point snapshot
        trace = mt.to_chrome_trace()
        _check_chrome_schema(trace)
        names = {e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert "batch.point" in names  # driver lane has the spans
