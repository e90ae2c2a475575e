"""The bench harness: snapshot shape, persistence + pointer files,
and the exact comparison gate.

The gate's contract: identical snapshots pass; any drift in a
deterministic simulated counter or in the ledger's row set or counts
fails (exact match); nothing timed is gated, on any host.
"""

import copy
import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import bench, compare
from repro.obs.bench import compare_snapshots, run_bench, save_snapshot
from repro.obs.compare import read_run
from repro.obs.perf import perf_diff
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
                     procs=[1, 2], n=8)


class TestRunBench:
    def test_snapshot_shape(self, snap):
        assert snap["schema"] == bench.SCHEMA_VERSION
        assert set(snap["host"]) == {"platform", "machine", "python",
                                     "node", "cpu", "cores"}
        assert snap["host"]["cpu"]
        assert snap["host"]["cores"] >= 1
        assert snap["config"]["apps"] == ["simple"]
        assert snap["config"]["schemes"] == ["base", "comp"]
        assert "repeats" not in snap["config"]
        assert len(snap["points"]) == 4
        for p in snap["points"]:
            # Nothing timed is stored: the gate is exact.
            assert "wall" not in p
            assert p["sim"]["total_time"] > 0
            assert p["sim"]["n_accesses"] > 0
            assert "misses" in p["sim"]
            assert "numa" in p["sim"] and "conflict" in p["sim"]

    def test_points_carry_perf_ledger_and_stacks(self, snap):
        # Schema 3: every point stores the wall-time ledger.  No
        # comparison reads sampled stacks or a sampled profile, so a
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
                          procs=[1, 2], n=8)
        for a, b in zip(snap["points"], again["points"]):
            assert a["sim"] == b["sim"]

    def test_snapshot_is_json_safe(self, snap):
        assert json.loads(json.dumps(snap)) == snap

    def test_obs_state_restored(self):
        obs.enable(reset=True)
        keep = obs.collector()
        run_bench(apps=["simple"], schemes=["base"], procs=[1], n=8)
        assert obs.enabled()
        assert obs.collector() is keep


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
        assert cmp.ok and cmp.rows == []
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

    def test_different_host_gates_exactly(self, snap):
        # No part of the gate depends on the host: a baseline from
        # another machine passes on equal counters and fails on drift.
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere", cores=9999)
        assert compare_snapshots(snap, cur).ok
        cur["points"][0]["sim"]["total_time"] *= 2.0
        cmp = compare_snapshots(snap, cur)
        assert [r.metric for r in cmp.regressions] == ["sim.total_time"]

    def test_snapshot_with_wall_block_still_compares(self, snap):
        # Older schema-3 snapshots still carry per-point "wall" blocks
        # and config.repeats; nothing reads them.
        old = copy.deepcopy(snap)
        old["config"]["repeats"] = 3
        for p in old["points"]:
            p["wall"] = {"repeats": 3, "samples": [1.0, 2.0, 3.0],
                         "min": 1.0, "p50": 2.0, "mean": 2.0, "max": 3.0}
        cmp = compare_snapshots(old, snap)
        assert cmp.ok and cmp.rows == []

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
    """The schema-3 ledger gate: deterministic structure exact, self
    times never read (``perf diff`` compares them on one host)."""

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

    def test_ledger_self_time_not_gated_cross_host(self, snap):
        # Self times are wall-clock; the exact gate ignores them on
        # another host and on this one alike.
        for host in (snap["host"], dict(snap["host"], node="elsewhere")):
            cur = copy.deepcopy(snap)
            cur["host"] = host
            for p in cur["points"]:
                for r in p["perf"]["ledger"]["rows"]:
                    r["self_s"] += 10.0
            assert compare_snapshots(snap, cur).ok

    def test_host_mismatch_skip_message_names_fields(self, snap):
        # Comparing self times across hosts is left to perf diff, which
        # names every differing host field when it skips them.
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere", cores=9999)
        pd = perf_diff(snap, cur)
        assert not pd.wall_gated
        assert "node" in pd.host_note and "cores" in pd.host_note


class TestHostFingerprint:
    def test_fingerprint_fields(self):
        fp = compare.host_fingerprint()
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
        assert "compile" in table and "sim time" in table
        assert "wall" not in table
        assert len(table.splitlines()) == 3 + len(snap["points"])


class TestBenchCLI:
    def _run(self, tmp_path, *extra):
        argv = ["bench", "--apps", "simple", "--schemes", "base",
                "--procs-list", "1", "--n", "8",
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
