"""Persistent perf-regression harness (PR-4): snapshot shape,
persistence + pointer files, and the noise-aware comparison gate.

The gate's contract: identical snapshots pass; any drift in a
deterministic simulated counter fails (exact match); wall time fails
only beyond the relative tolerance and only on the same host.
"""

import copy
import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import bench, compare
from repro.obs.bench import compare_snapshots, run_bench, save_snapshot
from repro.obs.compare import read_run
from repro.pipeline import reset_session
from repro.report import format_bench_table, format_regression_table


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    reset_session()
    yield
    obs.disable()
    obs.reset()
    reset_session()


@pytest.fixture(scope="module")
def snap():
    """One tiny grid, shared by the read-only tests (deep-copy before
    mutating)."""
    return run_bench(apps=["simple"], schemes=["base", "comp"],
                     procs=[1, 2], n=8, repeats=2)


class TestRunBench:
    def test_snapshot_shape(self, snap):
        assert snap["schema"] == bench.SCHEMA_VERSION
        assert set(snap["host"]) == {"platform", "machine", "python",
                                     "node", "cpu", "cores"}
        assert snap["host"]["cpu"]
        assert snap["host"]["cores"] >= 1
        assert snap["config"]["apps"] == ["simple"]
        assert snap["config"]["schemes"] == ["base", "comp"]
        assert len(snap["points"]) == 4
        for p in snap["points"]:
            assert p["wall"]["repeats"] == 2
            assert len(p["wall"]["samples"]) == 2
            assert p["wall"]["min"] <= p["wall"]["p50"] <= p["wall"]["max"]
            assert p["sim"]["total_time"] > 0
            assert p["sim"]["n_accesses"] > 0
            assert "misses" in p["sim"]
            assert "numa" in p["sim"] and "conflict" in p["sim"]

    def test_points_carry_perf_ledger_and_stacks(self, snap):
        # Schema 3: every point stores the wall-time ledger.  No
        # comparison reads sampled stacks or the hotspot profile, so a
        # snapshot carries neither.
        for p in snap["points"]:
            ledger = p["perf"]["ledger"]
            kinds = {r["kind"] for r in ledger["rows"]}
            assert "pass" in kinds and "residual" in kinds
            assert "stacks" not in p["perf"]
            assert "profile" not in p

    def test_addressing_counters_recorded(self, snap):
        # The optimized emitter's strength reduction fires somewhere in
        # the grid; its counters are part of the tracked surface.
        assert any(p["sim"]["addressing"] for p in snap["points"])

    def test_deterministic_sim_metrics(self, snap):
        again = run_bench(apps=["simple"], schemes=["base", "comp"],
                          procs=[1, 2], n=8, repeats=1)
        for a, b in zip(snap["points"], again["points"]):
            assert a["sim"] == b["sim"]

    def test_snapshot_is_json_safe(self, snap):
        assert json.loads(json.dumps(snap)) == snap

    def test_obs_state_restored(self):
        obs.enable(reset=True)
        keep = obs.collector()
        run_bench(apps=["simple"], schemes=["base"], procs=[1], n=8,
                  repeats=1)
        assert obs.enabled()
        assert obs.collector() is keep

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(apps=["simple"], schemes=["base"], procs=[1],
                      repeats=0)


class TestPersistence:
    def test_save_and_load_via_pointer(self, snap, tmp_path):
        out = tmp_path / "bench"
        latest = tmp_path / "BENCH_latest.json"
        path, lpath = save_snapshot(snap, out_dir=out, latest=latest)
        assert json.load(open(lpath))["pointer"] == path
        assert read_run(path) == snap
        assert read_run(latest) == snap

    def test_relative_pointer_resolves_against_pointer_dir(self, snap,
                                                           tmp_path):
        out = tmp_path / "bench"
        path, _ = save_snapshot(snap, out_dir=out, latest=None)
        pointer = out / "latest.json"
        name = path.rsplit("/", 1)[-1]
        pointer.write_text(json.dumps({"schema": 1, "pointer": name}))
        assert read_run(pointer) == snap

    def test_collision_gets_serial_suffix(self, snap, tmp_path):
        out = tmp_path / "bench"
        p1, _ = save_snapshot(snap, out_dir=out, latest=None)
        p2, _ = save_snapshot(snap, out_dir=out, latest=None)
        assert p1 != p2 and p2.endswith("-1.json")

    def test_pointer_cycle_bounded(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"pointer": str(b)}))
        b.write_text(json.dumps({"pointer": str(a)}))
        with pytest.raises(ValueError, match="pointer chain"):
            read_run(a)


class TestCompare:
    def test_identical_snapshots_pass(self, snap):
        cmp = compare_snapshots(snap, copy.deepcopy(snap))
        assert cmp.ok
        assert cmp.wall_gated
        table = format_regression_table(cmp)
        assert "verdict: OK" in table

    def test_perturbed_sim_counter_fails_exactly(self, snap):
        cur = copy.deepcopy(snap)
        cur["points"][0]["sim"]["n_accesses"] += 1
        cmp = compare_snapshots(snap, cur)
        assert not cmp.ok
        bad = cmp.regressions
        assert [r.metric for r in bad] == ["sim.n_accesses"]
        assert bad[0].status == "changed"
        table = format_regression_table(cmp)
        assert "sim.n_accesses" in table and "REGRESSED" in table

    def test_wall_regression_same_host(self, snap):
        cur = copy.deepcopy(snap)
        for p in cur["points"]:
            p["wall"]["min"] = p["wall"]["min"] + 1.0  # way past both gates
        cmp = compare_snapshots(snap, cur, wall_tol=0.30)
        assert not cmp.ok
        assert all(r.metric == "wall.min" and r.status == "regressed"
                   for r in cmp.regressions)

    def test_wall_within_tolerance_passes(self, snap):
        cur = copy.deepcopy(snap)
        for p in cur["points"]:
            p["wall"]["min"] = p["wall"]["min"] * 1.1
        assert compare_snapshots(snap, cur, wall_tol=0.30).ok

    def test_sub_floor_jitter_never_regresses(self, snap):
        # Huge relative swing on a tiny measurement stays under the
        # absolute floor and must not trip the gate.
        base = copy.deepcopy(snap)
        cur = copy.deepcopy(snap)
        for bp, cp in zip(base["points"], cur["points"]):
            bp["wall"]["min"] = 0.001
            cp["wall"]["min"] = 0.003  # +200% relative, +2ms absolute
        assert compare_snapshots(base, cur, wall_tol=0.30,
                                 wall_abs_floor=0.010).ok
        assert not compare_snapshots(base, cur, wall_tol=0.30,
                                     wall_abs_floor=0.0).ok

    def test_different_host_skips_wall_gate(self, snap):
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere")
        for p in cur["points"]:
            p["wall"]["min"] = p["wall"]["min"] * 100.0
        cmp = compare_snapshots(snap, cur)
        assert cmp.ok and not cmp.wall_gated
        assert any(r.status == "skipped" for r in cmp.rows)
        assert "wall gate off" in format_regression_table(cmp)

    def test_vanished_point_fails(self, snap):
        cur = copy.deepcopy(snap)
        cur["points"] = cur["points"][1:]
        cmp = compare_snapshots(snap, cur)
        assert not cmp.ok
        assert cmp.regressions[0].status == "missing"

    def test_new_point_reported_not_failing(self, snap):
        base = copy.deepcopy(snap)
        base["points"] = base["points"][1:]
        cmp = compare_snapshots(base, snap)
        assert cmp.ok
        assert any(r.status == "new" for r in cmp.rows)

    def test_config_mismatch_incomparable(self, snap):
        cur = copy.deepcopy(snap)
        cur["config"] = dict(cur["config"], n=99)
        cmp = compare_snapshots(snap, cur)
        assert not cmp.ok
        assert cmp.rows[0].status == "incomparable"

    def test_schema_mismatch_incomparable(self, snap):
        cur = copy.deepcopy(snap)
        cur["schema"] = 99
        cmp = compare_snapshots(snap, cur)
        assert not cmp.ok and cmp.rows[0].metric == "schema"

    def test_schema2_snapshot_loads_but_is_incomparable(self, snap,
                                                        tmp_path):
        # A committed schema-2 baseline (no "perf" key, old host shape)
        # must still load fine and fail the gate as incomparable — not
        # crash on the missing ledger.
        old = copy.deepcopy(snap)
        old["schema"] = 2
        old["host"] = {k: old["host"][k] for k in
                       ("platform", "machine", "python", "node")}
        for p in old["points"]:
            p.pop("perf")
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        loaded = read_run(path)
        assert loaded["schema"] == 2
        cmp = compare_snapshots(loaded, snap)
        assert not cmp.ok and cmp.rows[0].status == "incomparable"

    def test_missing_ledger_in_baseline_not_compared(self, snap):
        # Same schema but a point without "perf" (defensive): the
        # ledger gate simply doesn't apply to that point.
        base = copy.deepcopy(snap)
        for p in base["points"]:
            p.pop("perf")
        assert compare_snapshots(base, snap).ok


class TestCompareLedger:
    """The schema-3 ledger gate: deterministic structure exact,
    self-time noise-gated like wall.min."""

    def test_ledger_count_drift_fails_exactly(self, snap):
        cur = copy.deepcopy(snap)
        row = cur["points"][0]["perf"]["ledger"]["rows"][0]
        row["count"] += 1
        cmp = compare_snapshots(snap, cur)
        assert not cmp.ok
        bad = cmp.regressions
        assert len(bad) == 1
        assert bad[0].metric.startswith("perf.") and \
            bad[0].metric.endswith(".count")
        assert bad[0].status == "changed"

    def test_ledger_row_vanished_fails(self, snap):
        cur = copy.deepcopy(snap)
        led = cur["points"][0]["perf"]["ledger"]
        led["rows"] = [r for r in led["rows"] if r["kind"] != "pass"]
        cmp = compare_snapshots(snap, cur)
        assert not cmp.ok
        assert all(r.note == "ledger row appeared/disappeared"
                   for r in cmp.regressions)

    def test_ledger_self_time_noise_gated(self, snap):
        # +200% relative but under the 10ms floor: quiet.  Past both
        # thresholds: regressed.
        base = copy.deepcopy(snap)
        cur = copy.deepcopy(snap)
        for bp, cp in zip(base["points"], cur["points"]):
            for br, cr in zip(bp["perf"]["ledger"]["rows"],
                              cp["perf"]["ledger"]["rows"]):
                br["self_s"] = 0.001
                cr["self_s"] = 0.003
        assert compare_snapshots(base, cur).ok
        cur["points"][0]["perf"]["ledger"]["rows"][0]["self_s"] = 1.0
        cmp = compare_snapshots(base, cur)
        assert not cmp.ok
        assert cmp.regressions[0].metric.endswith(".self_s")

    def test_ledger_self_time_not_gated_cross_host(self, snap):
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere")
        for p in cur["points"]:
            for r in p["perf"]["ledger"]["rows"]:
                r["self_s"] += 10.0
        assert compare_snapshots(snap, cur).ok

    def test_host_mismatch_skip_message_names_fields(self, snap):
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere", cores=9999)
        cmp = compare_snapshots(snap, cur)
        skipped = [r for r in cmp.rows if r.status == "skipped"]
        assert skipped
        assert "node" in skipped[0].note and "cores" in skipped[0].note
        assert "wall gate off" in skipped[0].note


class TestHostFingerprint:
    def test_fingerprint_fields(self):
        fp = bench.host_fingerprint()
        assert fp["cpu"] and isinstance(fp["cores"], int)
        assert fp["python"].count(".") >= 1

    def test_describe_host_mismatch(self):
        a = {"node": "a", "cpu": "x", "cores": 4}
        b = {"node": "b", "cpu": "x", "cores": 8}
        gated, msg = compare.wall_gate({"host": a}, {"host": b})
        assert not gated
        assert "node: 'a' vs 'b'" in msg
        assert "cores: 4 vs 8" in msg
        assert "cpu" not in msg
        assert compare.wall_gate({"host": a}, {"host": dict(a)}) == (
            True, "")


class TestBenchTable:
    def test_format_bench_table(self, snap):
        table = format_bench_table(snap)
        assert "simple" in table
        assert "wall min" in table and "sim time" in table
        assert len(table.splitlines()) == 3 + len(snap["points"])


class TestBenchCLI:
    def _run(self, tmp_path, *extra):
        argv = ["bench", "--apps", "simple", "--schemes", "base",
                "--procs-list", "1", "--n", "8", "--repeats", "2",
                "--out-dir", str(tmp_path / "bench"),
                "--latest", str(tmp_path / "BENCH_latest.json")]
        return main(argv + list(extra))

    def test_two_runs_then_compare_pass(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        assert self._run(tmp_path) == 0
        rc = self._run(tmp_path, "--compare",
                       str(tmp_path / "BENCH_latest.json"))
        assert rc == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_compare_perturbed_baseline_exits_nonzero(self, tmp_path,
                                                      capsys):
        assert self._run(tmp_path) == 0
        latest = tmp_path / "BENCH_latest.json"
        baseline = read_run(latest)
        baseline["points"][0]["sim"]["total_time"] += 1.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        rc = self._run(tmp_path, "--compare", str(doctored))
        assert rc == 1
        out = capsys.readouterr().out
        assert "sim.total_time" in out and "REGRESSED" in out

    def test_wall_gate_trip_prints_perf_culprits(self, tmp_path, capsys):
        # A tripped wall gate must auto-print the differential
        # attribution (perf culprit table) next to the provenance diff.
        assert self._run(tmp_path) == 0
        baseline = read_run(tmp_path / "BENCH_latest.json")
        for p in baseline["points"]:
            p["wall"]["min"] = 1e-9
            for r in p["perf"]["ledger"]["rows"]:
                r["self_s"] *= 1e-6
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        capsys.readouterr()
        rc = self._run(tmp_path, "--compare", str(doctored),
                       "--wall-abs-floor", "0.0")
        assert rc == 1
        out = capsys.readouterr().out
        assert "perf culprits vs baseline" in out
        assert "SIGNIFICANT" in out

    def test_compare_resolves_baseline_before_save(self, tmp_path):
        # --compare against the pointer must mean the *previous* run.
        assert self._run(tmp_path) == 0
        first = json.load(open(tmp_path / "BENCH_latest.json"))["pointer"]
        assert self._run(tmp_path, "--compare",
                         str(tmp_path / "BENCH_latest.json")) == 0
        second = json.load(open(tmp_path / "BENCH_latest.json"))["pointer"]
        assert first != second  # pointer moved, gate used the old one

    def test_no_save_writes_nothing(self, tmp_path):
        assert self._run(tmp_path, "--no-save") == 0
        assert not (tmp_path / "bench").exists()
        assert not (tmp_path / "BENCH_latest.json").exists()

    def test_missing_baseline_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load baseline"):
            self._run(tmp_path, "--compare", str(tmp_path / "nope.json"))

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["bench", "--apps", "bogus", "--no-save"])


class TestSeriesTrends:
    """The ``repro series`` rollup: bench digests and figure curves
    judged last-vs-previous."""

    def _bench_line(self, created, wall, misses):
        return {"schema": 2, "created": created, "name": "bench",
                "kind": "bench",
                "points": [{"point": "simple/comp/P4",
                            "wall_p50": wall, "misses": misses}]}

    def _figure_line(self, created, speedup):
        return {"schema": 2, "created": created, "name": "fig_speedup",
                "series": {"OPT": [[1, 1.0], [8, speedup]]}}

    def test_single_sample_is_new(self):
        rows = bench.series_trends([self._bench_line("t0", 0.01, 5)])
        assert [r["status"] for r in rows] == ["new"]
        assert rows[0]["prev"] is None and rows[0]["runs"] == 1

    def test_wall_regression_needs_relative_and_absolute(self):
        # +200% but only +0.002s absolute: under the floor, not flagged.
        rows = bench.series_trends([self._bench_line("t0", 0.001, 5),
                                    self._bench_line("t1", 0.003, 5)])
        assert rows[0]["status"] == "ok"
        # +200% and +0.02s absolute: regression.
        rows = bench.series_trends([self._bench_line("t0", 0.01, 5),
                                    self._bench_line("t1", 0.03, 5)])
        assert rows[0]["status"] == "regressed"

    def test_miss_drift_overrides_wall_verdict(self):
        rows = bench.series_trends([self._bench_line("t0", 0.01, 100),
                                    self._bench_line("t1", 0.01, 101)])
        assert rows[0]["status"] == "changed"
        assert "100 → 101" in rows[0]["note"]

    def test_figure_speedup_judged_at_max_procs(self):
        rows = bench.series_trends([self._figure_line("t0", 5.0),
                                    self._figure_line("t1", 3.0)])
        assert rows[0]["key"] == "fig_speedup:OPT@P8"
        assert rows[0]["unit"] == "speedup"
        assert rows[0]["status"] == "regressed"
        rows = bench.series_trends([self._figure_line("t0", 5.0),
                                    self._figure_line("t1", 5.1)])
        assert rows[0]["status"] == "ok"

    def test_garbled_and_unknown_lines_ignored(self):
        rows = bench.series_trends([
            {"kind": "bench", "points": [{"point": None, "wall_p50": 1}]},
            {"series": "not a dict"},
            {"unrelated": True},
            self._bench_line("t0", 0.01, 5),
        ])
        assert len(rows) == 1


class TestAppendBenchSeries:
    def test_digest_round_trip(self, snap, tmp_path):
        path = tmp_path / "series.jsonl"
        out = bench.append_bench_series(snap, path=path)
        assert out == str(path)
        lines = bench.load_series_lines(path)
        assert len(lines) == 1
        assert lines[0]["kind"] == "bench"
        digest = {p["point"]: p for p in lines[0]["points"]}
        for p in snap["points"]:
            key = compare.point_key(p)
            assert digest[key]["wall_p50"] == p["wall"]["p50"]
            assert digest[key]["misses"] == sum(p["sim"]["misses"].values())

    def test_load_series_lines_is_lenient(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_text('{"kind": "bench", "points": []}\n'
                        'garbage\n'
                        '[1, 2]\n'
                        '{"name": "ok"}\n')
        lines = bench.load_series_lines(path)
        assert len(lines) == 2
        assert bench.load_series_lines(tmp_path / "missing.jsonl") == []
