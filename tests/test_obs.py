"""The observability layer: spans, metrics, exporters, no-op fast path.

Covers span nesting/timing, counter aggregation, the disabled-mode
shared no-op objects (identity checks), the Chrome trace-event export
round-trip, the CLI ``profile`` command, and the overhead guard: the
disabled instrumentation path must add < 5% to a small
``compile_all`` + ``simulate`` run.
"""

import json
import time

import pytest

from repro import obs
from repro.apps import simple
from repro.compiler import Scheme, compile_all, compile_program
from repro.machine import scaled_dash
from repro.machine.simulate import simulate
from tests.conftest import median_paired_overhead


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts disabled with an empty collector, a cold
    pipeline session (so compiles do real pass work rather than hitting
    artifacts cached by earlier tests), and leaves no global state
    behind."""
    from repro import pipeline

    obs.disable()
    obs.reset()
    pipeline.reset_session()
    yield
    obs.disable()
    obs.reset()
    pipeline.reset_session()


class TestSpans:
    def test_nesting_and_timing(self):
        obs.enable()
        with obs.span("outer", cat="test", k=1) as outer:
            time.sleep(0.002)
            with obs.span("inner", cat="test") as inner:
                time.sleep(0.001)
                inner.add("work", 3)
                inner.add("work", 4)
        spans = obs.collector().spans
        assert [s.name for s in spans] == ["inner", "outer"]  # close order
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration > 0
        assert outer.duration >= inner.duration
        assert inner.counters == {"work": 7}
        assert outer.attrs == {"k": 1}

    def test_events_parented_to_open_span(self):
        obs.enable()
        with obs.span("phase", cat="test") as sp:
            obs.event("thing", cat="test", value=42)
        ev = obs.collector().events[0]
        assert ev.span_id == sp.span_id
        assert ev.attrs == {"value": 42}

    def test_span_records_exception_type(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom", cat="test"):
                raise ValueError("no")
        assert obs.collector().spans[0].attrs["error"] == "ValueError"


class TestMetrics:
    def test_counter_aggregation(self):
        obs.enable()
        obs.inc("x", 2)
        obs.inc("x", 3)
        obs.inc("y")
        snap = obs.collector().metrics.snapshot()
        assert snap["counters"] == {"x": 5, "y": 1}

    def test_gauge_and_histogram(self):
        obs.enable()
        obs.gauge("g").set(7.5)
        h = obs.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        snap = obs.collector().metrics.snapshot()
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["mean"] == 2.0
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0


class TestHistogramEdges:
    """Percentile estimation at the awkward ends: empty, single
    sample, interpolation, and the deterministic reservoir decimation
    that kicks in past SAMPLE_CAP observations."""

    def test_empty_histogram(self):
        from repro.obs.metrics import Histogram
        h = Histogram("h")
        assert h.percentile(0.0) == 0.0
        assert h.p50 == 0.0 and h.p95 == 0.0
        assert h.mean == 0.0

    def test_empty_histogram_snapshot_uses_none_sentinels(self):
        obs.enable()
        obs.collector().metrics.histogram("h")  # created, never observed
        snap = obs.collector().metrics.snapshot()["histograms"]["h"]
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["p50"] is None and snap["p95"] is None

    def test_single_sample_is_every_percentile(self):
        from repro.obs.metrics import Histogram
        h = Histogram("h").observe(7.25)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.percentile(q) == 7.25
        assert h.min == h.max == 7.25

    def test_percentile_interpolates(self):
        from repro.obs.metrics import Histogram
        h = Histogram("h")
        for v in (4.0, 1.0, 3.0, 2.0):  # order must not matter
            h.observe(v)
        assert h.percentile(0.5) == pytest.approx(2.5)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 4.0

    def test_decimation_boundary_keeps_estimates_and_extremes(self):
        from repro.obs.metrics import SAMPLE_CAP, Histogram
        h = Histogram("h")
        n = SAMPLE_CAP + 1  # first decimation fires exactly here
        for v in range(n):
            h.observe(float(v))
        assert h.count == n
        assert len(h.samples) <= SAMPLE_CAP
        assert h.min == 0.0 and h.max == float(n - 1)
        # Decimated estimates stay close to the true percentiles.
        assert h.percentile(0.5) == pytest.approx((n - 1) / 2, rel=0.05)
        assert h.p95 == pytest.approx(0.95 * (n - 1), rel=0.05)

    def test_decimation_is_deterministic(self):
        from repro.obs.metrics import SAMPLE_CAP, Histogram
        a, b = Histogram("a"), Histogram("b")
        for v in range(3 * SAMPLE_CAP):
            a.observe(float(v))
            b.observe(float(v))
        assert a.samples == b.samples  # identical streams → identical retention


class TestSummaryDegenerate:
    """The text exporter on empty / awkward recordings."""

    def test_nothing_recorded(self):
        obs.enable()
        assert obs.summary() == "(no telemetry recorded)"

    def test_unobserved_histogram_renders_dashes(self):
        obs.enable()
        obs.collector().metrics.histogram("latency.empty")
        text = obs.summary()
        assert "latency.empty" in text
        assert "p50=- p95=-" in text  # None sentinels, not a crash

    def test_single_sample_histogram_renders(self):
        obs.enable()
        obs.histogram("one").observe(2.5)
        text = obs.summary()
        assert "n=1" in text and "p50=2.5" in text

    def test_monitor_counters_join_store_section(self):
        obs.enable()
        obs.inc("monitor.ticks", 3)
        obs.inc("monitor.errors", 4)
        text = obs.summary()
        store_section = text.split("result store:", 1)[1]
        store_section = store_section.split("counters:", 1)[0]
        assert "monitor.ticks" in store_section
        assert "monitor.errors" in store_section


class TestDisabledFastPath:
    def test_span_returns_shared_noop(self):
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b", cat="x", attr=1)
        assert obs.span("a") is obs.NOOP_SPAN

    def test_metrics_return_shared_noop(self):
        assert obs.counter("a") is obs.counter("b")
        assert obs.counter("a") is obs.NOOP_METRIC
        assert obs.gauge("g") is obs.NOOP_METRIC
        assert obs.histogram("h") is obs.NOOP_METRIC

    def test_nothing_recorded_while_disabled(self):
        with obs.span("s", cat="test") as sp:
            sp.add("c", 1).set(x=2)
        obs.event("e", cat="test")
        obs.inc("c", 5)
        c = obs.collector()
        assert c.spans == [] and c.events == []
        assert c.metrics.snapshot()["counters"] == {}

    def test_noop_span_surface(self):
        sp = obs.span("x")
        assert sp.set(a=1) is sp
        assert sp.add("k") is sp
        assert sp.duration == 0.0


REQUIRED_KEYS = {"name", "ph", "pid", "tid"}
PHASES = {"M", "X", "i", "C"}


def _check_chrome_schema(trace):
    """Structural validation of one Chrome trace-event object: the
    exporter's contract with trace viewers."""
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


class TestExport:
    def _record_something(self):
        obs.enable()
        with obs.span("outer", cat="test", scheme="base") as sp:
            sp.add("cold", 4)
            with obs.span("inner", cat="test"):
                obs.event("ev", cat="test", nest="n0")
        obs.inc("total", 9)

    def test_chrome_trace_round_trip(self):
        self._record_something()
        data = json.loads(json.dumps(obs.to_chrome_trace()))
        _check_chrome_schema(data)
        evs = data["traceEvents"]
        xs = {e["name"]: e for e in evs if e["ph"] == "X"}
        assert set(xs) == {"outer", "inner"}
        assert xs["outer"]["args"]["scheme"] == "base"
        assert xs["outer"]["args"]["cold"] == 4
        assert xs["outer"]["dur"] >= xs["inner"]["dur"] >= 0
        # Span counters and registry counters appear as counter tracks.
        cs = [e for e in evs if e["ph"] == "C"]
        assert any(e["name"] == "outer.cold" for e in cs)
        assert any(e["name"] == "total" and e["args"]["total"] == 9
                   for e in cs)
        assert any(e["ph"] == "i" and e["name"] == "ev" for e in evs)

    def test_json_dump_structure(self):
        self._record_something()
        data = json.loads(json.dumps(obs.to_json()))
        assert [s["name"] for s in data["spans"]] == ["outer", "inner"]
        assert data["spans"][1]["parent"] == data["spans"][0]["id"]
        assert data["metrics"]["counters"]["total"] == 9
        assert data["events"][0]["name"] == "ev"

    def test_summary_renders_tree(self):
        self._record_something()
        text = obs.summary()
        assert "outer" in text and "inner" in text
        assert "total" in text
        assert "ms" in text

    def test_write_chrome_trace(self, tmp_path):
        self._record_something()
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(path)
        with open(path) as fh:
            data = json.load(fh)
        assert "traceEvents" in data


class TestPipelineTelemetry:
    """The instrumented compiler + simulator emit the expected shape."""

    def test_compile_simulate_trace_contents(self):
        obs.enable()
        prog = simple.build(n=16)
        spmd = compile_program(prog, Scheme.COMP_DECOMP_DATA, 4)
        res = simulate(spmd, scaled_dash(4, scale=32, word_bytes=8))
        names = {s.name for s in obs.collector().spans}
        assert {"compiler.compile", "compiler.restructure",
                "unimodular.nest", "decomp.greedy", "decomp.solve_group",
                "codegen.spmd", "sim.simulate", "sim.trace",
                "sim.phase"} <= names
        # Per-phase simulator spans carry miss-class counters.
        phase_spans = [
            s for s in obs.collector().spans
            if s.name == "sim.phase" and s.attrs.get("round") == "steady"
        ]
        assert phase_spans
        for s in phase_spans:
            assert {"cold", "replacement", "true_sharing",
                    "false_sharing"} <= set(s.counters)
        # Ladder decisions and layout derivations were logged.
        ev_names = {e.name for e in obs.collector().events}
        assert {"decomp.ladder", "decomp.folding",
                "datatrans.layout", "codegen.phase"} <= ev_names
        # Detail fields flow into SimResult when obs is enabled.
        assert res.array_breakdown
        assert "local_ratio" in res.numa
        assert res.conflict_sets["nsets"] > 0
        for pc in res.phase_costs:
            assert "cold" in pc.misses

    def test_detail_flag_without_obs(self):
        prog = simple.build(n=16)
        spmd = compile_program(prog, Scheme.BASE, 4)
        machine = scaled_dash(4, scale=32, word_bytes=8)
        lean = simulate(spmd, machine)
        rich = simulate(spmd, machine, detail=True)
        assert lean.array_breakdown == {}
        assert rich.array_breakdown
        assert lean.total_time == rich.total_time


class TestProfileCli:
    def test_profile_command_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "trace.json")
        rc = main([
            "profile", "simple", "--n", "16", "--procs", "4",
            "--scheme", "comp_decomp_data", "-o", out,
        ])
        assert rc == 0
        with open(out) as fh:
            data = json.load(fh)
        _check_chrome_schema(data)
        evs = data["traceEvents"]
        xs = [e for e in evs if e.get("ph") == "X"]
        # Nested compiler-phase spans ...
        assert any(e["name"] == "compiler.compile" for e in xs)
        assert any(e["name"] == "decomp.greedy" for e in xs)
        # ... and per-phase simulator miss-class counters.
        sim_phases = [
            e for e in xs
            if e["name"] == "sim.phase"
            and e.get("args", {}).get("round") == "steady"
        ]
        assert sim_phases and all(
            "cold" in e["args"] and "false_sharing" in e["args"]
            for e in sim_phases
        )
        assert any(e.get("ph") == "C" for e in evs)
        text = capsys.readouterr().out
        assert "profile:" in text and "numa:" in text


def _workload():
    """A small but non-trivial compile_all + simulate run (fresh program
    each call so memoization cannot hide compile work)."""
    prog = simple.build(n=12, time_steps=2)
    compiled = compile_all(prog, nprocs=4)
    machine = scaled_dash(4, scale=32, word_bytes=8)
    return simulate(compiled.by_scheme(Scheme.COMP_DECOMP_DATA), machine)


class TestOverhead:
    def test_disabled_path_under_5_percent(self, monkeypatch):
        """The disabled instrumentation adds < 5% to compile+simulate.

        The floor is measured with every hook monkeypatched to the
        cheapest possible stub (the closest approximation of "no
        instrumentation at all" available without editing source).
        """
        obs.disable()
        _workload()  # warm imports and numpy caches
        noop_cm = obs.NOOP_SPAN

        def _stubbed():
            with monkeypatch.context() as m:
                m.setattr(obs, "span", lambda *a, **k: noop_cm)
                m.setattr(obs, "event", lambda *a, **k: None)
                m.setattr(obs, "inc", lambda *a, **k: None)
                m.setattr(obs, "enabled", lambda: False)
                _workload()

        overhead, floor = median_paired_overhead(_workload, _stubbed)

        # 5% relative margin plus 5ms absolute slack for timer noise on
        # very fast runs.
        assert overhead <= floor * 0.05 + 0.005, (
            f"disabled obs overhead too high: {overhead:+.4f}s over "
            f"floor {floor:.4f}s"
        )
