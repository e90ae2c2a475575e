"""The observability layer: spans, counters, exporters, no-op fast path.

Covers span nesting/timing, counter aggregation, the disabled-mode
shared no-op span (identity checks), the Chrome trace-event export
round-trip, ``repro perf``'s trace and profile table, and the overhead
guard: the disabled instrumentation path must add < 5% to a small
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
        obs.inc("z", 0)  # a zero count is still a key
        assert obs.collector().counters == {"x": 5, "y": 1, "z": 0}


class TestDisabledFastPath:
    def test_span_returns_shared_noop(self):
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b", cat="x", attr=1)
        assert obs.span("a") is obs.NOOP_SPAN

    def test_nothing_recorded_while_disabled(self):
        with obs.span("s", cat="test") as sp:
            sp.add("c", 1).set(x=2)
        obs.inc("c", 5)
        c = obs.collector()
        assert c.spans == [] and c.counters == {}

    def test_noop_span_surface(self):
        sp = obs.span("x")
        assert sp.set(a=1) is sp
        assert sp.add("k") is sp
        assert sp.duration == 0.0


REQUIRED_KEYS = {"name", "ph", "pid", "tid"}
PHASES = {"M", "X", "C"}


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
        # Timed events must be monotonic within their lane.
        assert ev["ts"] >= last_ts.get(ev["pid"], float("-inf"))
        last_ts[ev["pid"]] = ev["ts"]


class TestExport:
    def _record_something(self):
        obs.enable()
        with obs.span("outer", cat="test", scheme="base") as sp:
            sp.add("cold", 4)
            with obs.span("inner", cat="test"):
                pass
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
        # Span counters and the flat counters appear as counter tracks.
        cs = [e for e in evs if e["ph"] == "C"]
        assert any(e["name"] == "outer.cold" for e in cs)
        assert any(e["name"] == "total" and e["args"]["total"] == 9
                   for e in cs)

class TestPipelineTelemetry:
    """The instrumented compiler + simulator emit the expected shape."""

    def test_compile_simulate_trace_contents(self):
        from repro.pipeline import get_session

        obs.enable()
        prog = simple.build(n=16)
        spmd = compile_program(prog, Scheme.COMP_DECOMP_DATA, 4)
        res = simulate(spmd, scaled_dash(4, scale=32, word_bytes=8),
                       detail=True)
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
        # Ladder decisions and layout derivations were logged, in the
        # compile's provenance; each nest's sync plan is its SpmdPhase.
        sites = {r.site for r in get_session().last_provenance}
        assert {"decomp.ladder", "decomp.folding",
                "datatrans.layout"} <= sites
        assert len(spmd.phases) == len(prog.nests)
        # Detail fields flow into SimResult on detail=True.
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


class TestPerfCli:
    def test_perf_trace_and_profile_table(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "trace.json")
        rc = main([
            "perf", "simple", "--n", "16", "--procs", "4",
            "--scheme", "comp_decomp_data", "--trace", out,
        ])
        assert rc == 0
        with open(out) as fh:
            data = json.load(fh)
        _check_chrome_schema(data)
        evs = data["traceEvents"]
        xs = [e for e in evs if e.get("ph") == "X"]
        # The measurement window's root, its stages and the simulator ...
        names = {e["name"] for e in xs}
        assert {"perf.point", "pass.layout", "compiler.compile",
                "decomp.greedy", "sim.simulate"} <= names
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
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("reconciliation: OK") for line in lines)
        for head in ("profile:", "numa:", "locality:"):
            assert any(line.startswith(head) for line in lines), head


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
