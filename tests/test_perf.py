"""Performance attribution: the wall-time ledger (build,
reconciliation contract, anchor rollup), ``repro perf`` payloads, and
how ``repro diff`` judges two ledgers.

The load-bearing contracts:

* ledger rows (incl. ``<unattributed>``) sum back to the measured wall
  total on every point — the accounting is falsifiable;
* two same-config runs produce no self-time rows, while an injected
  per-pass stall is ranked first;
* deterministic structure (row sets, counts) gates exactly; self time
  is ranked only same-host and only past relative AND absolute
  thresholds, and never gates.
"""

import copy
import gc
import importlib
import json
import re
import time

import pytest

from repro import faults, obs
from repro.__main__ import main
from repro.codegen.spmd import parse_scheme
from repro.obs import bench
from repro.obs import core as _obs_core
from repro.obs.compare import diff_runs, point_key
from repro.obs.perf import (
    UNATTRIBUTED,
    build_ledger,
    ledger_reconciles,
    measure_point,
    record_point,
)
from repro.pipeline import CompileSession, reset_session
from repro.report import format_diff_table, format_ledger_table


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    faults.configure(None)
    reset_session()
    yield
    obs.disable()
    obs.reset()
    faults.configure(None)
    reset_session()


@pytest.fixture(scope="module")
def recorded():
    """One ``repro perf`` payload, shared read-only (deep-copy before
    mutating)."""
    return record_point("simple", parse_scheme("data"), 2, n=8)[0]


class TestBuildLedger:
    def test_rollup_attributes_descendants_to_anchor(self):
        # A non-anchor child span inside a pass span: its self time
        # rolls into the pass row, but only the pass itself counts.
        obs.enable(reset=True)
        with obs.span("pass.layout", cat="pipeline"):
            time.sleep(0.002)
            with obs.span("decomp.greedy", cat="decomp"):
                time.sleep(0.002)
        total = 0.02
        ledger = build_ledger(obs.collector(), total)
        rows = {(r["kind"], r["name"]): r for r in ledger["rows"]}
        assert ("pass", "layout") in rows
        assert ("other", "decomp.greedy") not in rows
        row = rows[("pass", "layout")]
        assert row["count"] == 1
        assert row["self_s"] >= 0.004 * 0.5  # both sleeps
        ok, _ = ledger_reconciles(ledger)
        assert ok

    def test_unanchored_span_gets_other_row(self):
        obs.enable(reset=True)
        with obs.span("compiler.compile", cat="compiler"):
            pass
        ledger = build_ledger(obs.collector(), 1.0)
        rows = {(r["kind"], r["name"]) for r in ledger["rows"]}
        assert ("other", "compiler.compile") in rows

    def test_residual_is_total_minus_span_sum(self):
        obs.enable(reset=True)
        with obs.span("sim.simulate", cat="machine"):
            time.sleep(0.001)
        ledger = build_ledger(obs.collector(), 10.0)
        assert ledger["rows"][-1]["name"] == UNATTRIBUTED
        assert ledger["unattributed_s"] == pytest.approx(
            10.0 - ledger["attributed_s"])
        ok, row_sum = ledger_reconciles(ledger)
        assert ok and row_sum == pytest.approx(10.0)

    def test_empty_recording_is_all_residual(self):
        obs.enable(reset=True)
        ledger = build_ledger(obs.collector(), 0.5)
        assert len(ledger["rows"]) == 1
        assert ledger["rows"][0]["self_s"] == 0.5

    def test_reconciles_on_every_bench_grid_point(self):
        # The acceptance property: exhaustive accounting on a real grid.
        snap = bench.run_bench(apps=["simple"], schemes=["base", "data"],
                               procs=[1, 2], n=8)
        for p in snap["points"]:
            ledger = p["perf"]["ledger"]
            ok, row_sum = ledger_reconciles(ledger)
            assert ok, (point_key(p), row_sum, ledger["total_s"])
            assert ledger["unattributed_s"] >= -1e-9
            names = {r["name"] for r in ledger["rows"]}
            assert UNATTRIBUTED in names

    def test_obs_state_restored_by_measure(self, recorded):
        # record_point ran in the module fixture; the global obs state
        # must be back to disabled here.
        assert not obs.enabled()
        assert _obs_core._collector is None or not obs.enabled()


class TestRecordPoint:
    def test_payload_shape(self, recorded):
        # A one-point bench snapshot whose point adds perf.stacks.
        assert recorded["schema"] == bench.SCHEMA_VERSION
        assert "kind" not in recorded
        assert set(recorded["host"]) == {"platform", "machine", "python",
                                         "node", "cpu", "cores"}
        assert recorded["config"] == {
            "apps": ["simple"], "schemes": ["data"], "procs": [2],
            "n": 8, "time_steps": None, "scale": 16}
        (point,) = recorded["points"]
        assert point["app"] == "simple" and point["nprocs"] == 2
        assert point["sim"]["n_accesses"] > 0
        assert point["sim"]["locality"]["reuse"]
        assert set(point["perf"]) == {"ledger", "stacks"}
        ok, _ = ledger_reconciles(point["perf"]["ledger"])
        assert ok
        rows = {(r["kind"], r["name"])
                for r in point["perf"]["ledger"]["rows"]}
        assert {"pass", "sim", "residual"} <= {kind for kind, _ in rows}
        assert ("sim", "locality") in rows

    def test_point_equals_bench_point(self, recorded):
        # One function builds both points: the same coordinate's
        # simulated counters and decisions are the bench point's, and
        # `repro diff` gates the two runs as two bench snapshots.
        snap = bench.run_bench(apps=["simple"], schemes=["data"],
                               procs=[2], n=8)
        (point,) = recorded["points"]
        (bench_pt,) = snap["points"]
        assert point["sim"] == bench_pt["sim"]
        assert point["provenance"] == bench_pt["provenance"]
        assert point["machine_fp"] == bench_pt["machine_fp"]
        diff = diff_runs(snap, recorded)
        assert not diff.diverged and diff.n_compared == 1

    def test_stacks_are_folded_lines(self, recorded):
        from repro.obs.flame import parse_collapsed

        stacks = recorded["points"][0]["perf"]["stacks"]
        assert stacks
        parsed = parse_collapsed(stacks)
        assert all(v > 0 for v in parsed.values())

    def test_payload_json_safe(self, recorded):
        assert json.loads(json.dumps(recorded)) == recorded

    def test_ledger_table_renders(self, recorded):
        table = format_ledger_table(recorded["points"][0]["perf"]["ledger"])
        assert "reconciliation: OK" in table
        assert UNATTRIBUTED in table


class TestMeasureWindow:
    def test_collector_off_inside_window_and_restored(self, monkeypatch):
        # A full collection of the rest of the heap inside the window
        # would be booked as self time of whichever ledger row is open.
        from repro.apps import build_app
        from repro.machine import scaled_dash

        sim_module = importlib.import_module("repro.machine.simulate")
        real = sim_module.simulate
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_module, "simulate", spy)
        assert gc.isenabled()
        measure_point(CompileSession(), build_app("simple", n=8),
                      parse_scheme("data"), 2, scaled_dash(2, scale=16))
        assert seen == [False]
        assert gc.isenabled()


def _moves(diff):
    """The ranked wall-clock rows of one diff."""
    return [r for r in diff.rows if r.status in ("regressed", "improved")]


class TestPerfDiff:
    def test_identical_runs_quiet(self, recorded):
        diff = diff_runs(recorded, copy.deepcopy(recorded))
        assert not diff.diverged
        assert diff.n_compared == 1 and diff.rows == []
        assert "runs identical" in format_diff_table(diff)

    def test_sub_threshold_drift_quiet(self, recorded):
        cur = copy.deepcopy(recorded)
        for r in cur["points"][0]["perf"]["ledger"]["rows"]:
            r["self_s"] *= 1.05  # +5%, under the 30% relative gate
        assert diff_runs(recorded, cur).rows == []

    def test_sub_floor_jitter_quiet(self, recorded):
        # +200% relative but +2ms absolute: under the 10ms floor; the
        # same relative move at +20ms is ranked.
        base = copy.deepcopy(recorded)
        cur = copy.deepcopy(recorded)
        for br, cr in zip(base["points"][0]["perf"]["ledger"]["rows"],
                          cur["points"][0]["perf"]["ledger"]["rows"]):
            br["self_s"] = 0.001
            cr["self_s"] = 0.003
        assert diff_runs(base, cur).rows == []
        for br, cr in zip(base["points"][0]["perf"]["ledger"]["rows"],
                          cur["points"][0]["perf"]["ledger"]["rows"]):
            br["self_s"] = 0.010
            cr["self_s"] = 0.030
        diff = diff_runs(base, cur)
        assert _moves(diff) and not diff.diverged

    def test_injected_slowdown_ranked_first(self, recorded):
        cur = copy.deepcopy(recorded)
        rows = cur["points"][0]["perf"]["ledger"]["rows"]
        target = next(r for r in rows if r["kind"] == "pass")
        target["self_s"] += 5.0
        other = next(r for r in rows if r["kind"] == "sim")
        other["self_s"] += 1.0
        diff = diff_runs(recorded, cur)
        assert not diff.diverged  # self time never gates
        assert [(r.metric, r.status) for r in _moves(diff)] == [
            (f"perf.pass/{target['name']}.self_s", "regressed"),
            (f"perf.sim/{other['name']}.self_s", "regressed")]
        first = next(line for line in format_diff_table(diff).splitlines()
                     if line.startswith("#1 "))
        assert f"perf.pass/{target['name']}.self_s" in first

    def test_count_drift_is_changed_even_cross_host(self, recorded):
        cur = copy.deepcopy(recorded)
        cur["host"] = dict(cur["host"], node="elsewhere")
        rows = cur["points"][0]["perf"]["ledger"]["rows"]
        next(r for r in rows if r["kind"] == "pass")["count"] += 1
        diff = diff_runs(recorded, cur)
        assert not diff.wall_gated
        assert diff.diverged
        assert diff.rows[0].status == "changed"
        assert "count drifted" in diff.rows[0].note

    def test_wall_not_gated_cross_host_with_explanation(self, recorded):
        cur = copy.deepcopy(recorded)
        cur["host"] = dict(cur["host"], node="elsewhere")
        for r in cur["points"][0]["perf"]["ledger"]["rows"]:
            r["self_s"] += 10.0
        diff = diff_runs(recorded, cur)
        assert diff.rows == [] and not diff.wall_gated
        assert "node" in diff.host_note
        assert "node" in format_diff_table(diff)

    def test_vanished_row_is_changed(self, recorded):
        cur = copy.deepcopy(recorded)
        led = cur["points"][0]["perf"]["ledger"]
        led["rows"] = [r for r in led["rows"] if r["kind"] != "phase"]
        diff = diff_runs(recorded, cur)
        assert diff.diverged
        assert all(r.status == "changed" for r in diff.rows
                   if r.metric.startswith("perf."))

    def test_run_without_ledger_skipped_with_note(self, recorded):
        old = copy.deepcopy(recorded)
        for p in old["points"]:
            p.pop("perf")
        diff = diff_runs(old, recorded)
        assert not diff.diverged
        assert diff.notes == ["simple/data/P2: no ledger in run A; "
                              "not compared"]
        assert "note: simple/data/P2: no ledger" in format_diff_table(diff)

    def test_diff_accepts_bench_snapshots(self):
        snap = bench.run_bench(apps=["simple"], schemes=["base"],
                               procs=[1], n=8)
        diff = diff_runs(snap, copy.deepcopy(snap))
        assert diff.n_compared == 1 and not diff.diverged

    def test_as_dict_json_safe(self, recorded):
        cur = copy.deepcopy(recorded)
        cur["points"][0]["perf"]["ledger"]["rows"][0]["self_s"] += 5.0
        d = diff_runs(recorded, cur).as_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["diverged"] is False
        assert [r["status"] for r in d["rows"]] == ["regressed"]


class TestPassStallFault:
    def test_stall_pass_parse_and_spec_round_trip(self):
        plan = faults.FaultPlan.parse(
            "seed=3,pass.stall=1.0,stall_s=0.25,stall_pass=layout")
        assert plan.rates["pass.stall"] == 1.0
        assert plan.stall_pass == "layout"
        assert faults.FaultPlan.parse(plan.spec()).stall_pass == "layout"

    def test_stall_narrowed_to_named_pass(self, monkeypatch):
        faults.configure("seed=1,pass.stall=1.0,stall_s=0.01,"
                         "stall_pass=layout")
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        faults.maybe_pass_stall("decompose")
        assert slept == []
        faults.maybe_pass_stall("layout")
        assert slept == [0.01]

    def test_stall_books_against_pass_ledger_row(self):
        # End to end: the injected stall must land in that pass's
        # ledger row — the attribution the perf CI job asserts.
        base, _ = record_point("simple", parse_scheme("data"), 2, n=8)
        faults.configure("seed=1,pass.stall=1.0,stall_s=0.05,"
                         "stall_pass=layout")
        try:
            stalled, _ = record_point("simple", parse_scheme("data"), 2,
                                      n=8)
        finally:
            faults.configure(None)
        diff = diff_runs(base, stalled)
        assert not diff.diverged
        top = _moves(diff)[0]
        assert (top.metric, top.status) == ("perf.pass/layout.self_s",
                                            "regressed")


class TestPerfCLI:
    def test_record_json_stdout(self, capsys):
        rc = main(["perf", "simple", "--scheme", "data",
                   "--procs", "2", "--n", "8", "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wall-time ledger: simple/data/P2" in out
        payload = json.loads(out[out.index('{\n  "config"'):])
        assert payload["schema"] == bench.SCHEMA_VERSION
        assert payload["config"]["schemes"] == ["data"]
        ok, _ = ledger_reconciles(payload["points"][0]["perf"]["ledger"])
        assert ok

    def test_page_fault_line_under_ledger(self, capsys):
        """The window's minor faults and system CPU print under the
        ledger as text; the JSON payload (a gated bench snapshot) does
        not carry them."""
        rc = main(["perf", "simple", "--scheme", "data",
                   "--procs", "2", "--n", "8", "--json", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("reconciliation: OK"))
        m = re.fullmatch(r"page faults: (\d+) minor, (\d+\.\d{3}) s "
                         r"system CPU \(inside the rows\)", lines[i + 1])
        assert m, lines[i + 1]
        assert int(m.group(1)) >= 0
        payload = out[out.index('{\n  "config"'):]
        assert "faults" not in payload and "system_s" not in payload

    def test_record_artifacts(self, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        flame = tmp_path / "flame.svg"
        stacks = tmp_path / "stacks.collapsed"
        rc = main(["perf", "simple", "--scheme", "base",
                   "--procs", "1", "--n", "8",
                   "--flame", str(flame), "--stacks", str(stacks)])
        assert rc == 0
        ET.parse(flame)  # well-formed XML
        from repro.obs.flame import parse_collapsed

        assert parse_collapsed(stacks.read_text().splitlines())

    def test_record_unknown_app_rejected(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["perf", "bogus"])

    def test_diff_exit_codes(self, tmp_path, capsys):
        # The exit code reads deterministic data only: a self-time move
        # is listed but exits 0; a count drift exits 1; a file that is
        # not a run exits 2.
        base, _ = record_point("simple", parse_scheme("base"), 1, n=8)
        paths = {}
        for name, field, delta in (("a", "self_s", 0.0),
                                   ("slow", "self_s", 5.0),
                                   ("count", "count", 1)):
            doctored = copy.deepcopy(base)
            rows = doctored["points"][0]["perf"]["ledger"]["rows"]
            next(r for r in rows if r["kind"] == "pass")[field] += delta
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doctored))
        paths["pointer"] = tmp_path / "pointer.json"
        paths["pointer"].write_text(json.dumps({"pointer": "a.json"}))
        a = str(paths["a"])
        assert main(["diff", a, a]) == 0
        assert main(["diff", a, str(paths["slow"])]) == 0
        assert "regressed" in capsys.readouterr().out
        assert main(["diff", a, str(paths["count"])]) == 1
        assert "DIVERGED" in capsys.readouterr().out
        assert main(["diff", a, str(tmp_path / "missing.json")]) == 2
        assert main(["diff", a, str(paths["pointer"])]) == 2
        assert "not a bench snapshot" in capsys.readouterr().err

    def test_diff_json_output(self, tmp_path, capsys):
        base, _ = record_point("simple", parse_scheme("base"), 1, n=8)
        a = tmp_path / "a.json"
        a.write_text(json.dumps(base))
        rc = main(["diff", str(a), str(a), "--json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["diverged"] is False and d["n_compared"] == 1
        assert d["rows"] == []
