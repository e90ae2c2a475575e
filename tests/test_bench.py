"""The bench recorder: snapshot shape and persistence, and the exact
gate ``repro diff`` puts on two snapshots.

The gate's contract: identical snapshots agree; any drift in a
deterministic simulated counter or in the ledger's row set or counts
diverges (exact match); nothing timed makes two snapshots differ, on
any host.
"""

import copy
import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import bench, compare
from repro.obs.bench import run_bench, save_snapshot
from repro.obs.compare import diff_runs, read_run
from repro.pipeline import reset_session
from repro.report import format_bench_table, format_diff_table


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


def _changed(diff):
    """Metrics of the rows that make two runs differ."""
    return [r.metric for r in diff.rows if r.status in compare.DIVERGED]


class TestPersistence:
    def test_save_and_load(self, snap, tmp_path):
        path = tmp_path / "bench" / "snap.json"
        path.parent.mkdir()
        save_snapshot(snap, path)
        assert read_run(path) == snap
        assert [p.name for p in path.parent.iterdir()] == ["snap.json"]

    def test_pointer_cycle_bounded(self, tmp_path):
        # The BENCH_latest.json pointer files of earlier versions are
        # not runs: loading one is a one-line error, not a redirect,
        # so even a cycle of them ends at the first file.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"pointer": str(b)}))
        b.write_text(json.dumps({"pointer": str(a)}))
        with pytest.raises(ValueError, match="a.json: not a bench snapshot"):
            read_run(a)


class TestCompare:
    def test_identical_snapshots_pass(self, snap):
        diff = diff_runs(snap, copy.deepcopy(snap))
        assert not diff.diverged and diff.rows == []
        assert "verdict: SAME (runs identical: 4 points compared)" in \
            format_diff_table(diff)

    def test_perturbed_sim_counter_fails_exactly(self, snap):
        cur = copy.deepcopy(snap)
        cur["points"][0]["sim"]["n_accesses"] += 1
        diff = diff_runs(snap, cur)
        assert diff.diverged
        assert _changed(diff) == ["sim.n_accesses"]
        table = format_diff_table(diff)
        assert "sim.n_accesses" in table and "DIVERGED" in table

    def test_different_host_gates_exactly(self, snap):
        # No deterministic part of the gate depends on the host: a
        # baseline from another machine agrees on equal counters and
        # diverges on drift.
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere", cores=9999)
        assert not diff_runs(snap, cur).diverged
        cur["points"][0]["sim"]["total_time"] *= 2.0
        assert _changed(diff_runs(snap, cur)) == ["sim.total_time"]

    def test_snapshot_with_wall_block_still_compares(self, snap):
        # Older schema-3 snapshots still carry per-point "wall" blocks
        # and config.repeats; they are wall-clock, so they never gate.
        old = copy.deepcopy(snap)
        old["config"]["repeats"] = 3
        for p in old["points"]:
            p["wall"] = {"repeats": 3, "samples": [1.0, 2.0, 3.0],
                         "min": 1.0, "p50": 2.0, "mean": 2.0, "max": 3.0}
        diff = diff_runs(old, snap)
        assert not diff.diverged and diff.rows == []

    def test_vanished_point_fails(self, snap):
        cur = copy.deepcopy(snap)
        cur["points"] = cur["points"][1:]
        diff = diff_runs(snap, cur)
        assert diff.diverged
        assert [(r.point, r.status, r.a, r.b) for r in diff.rows] == [
            ("simple/base/P1", "missing", "present", "absent")]

    def test_new_point_fails(self, snap):
        base = copy.deepcopy(snap)
        base["points"] = base["points"][1:]
        diff = diff_runs(base, snap)
        assert diff.diverged
        assert [(r.point, r.status, r.a, r.b) for r in diff.rows] == [
            ("simple/base/P1", "missing", "absent", "present")]
        assert "point simple/base/P1: point in run B only" in \
            format_diff_table(diff)

    def test_config_mismatch_incomparable(self, snap):
        # Any of the three problem-size keys; the other config keys
        # (apps, schemes, procs) only shape the point set.
        for field, value in (("n", 99), ("scale", 4), ("time_steps", 3)):
            cur = copy.deepcopy(snap)
            cur["config"] = dict(cur["config"], **{field: value})
            diff = diff_runs(snap, cur)
            assert diff.diverged
            assert [(r.metric, r.status) for r in diff.rows] == [
                ("config", "incomparable")]

    def test_schema_mismatch_incomparable(self, snap):
        cur = copy.deepcopy(snap)
        cur["schema"] = 99
        diff = diff_runs(snap, cur)
        assert diff.diverged
        assert [(r.metric, r.a, r.b) for r in diff.rows] == [
            ("schema", 3, 99)]
        assert "DIVERGED (runs incomparable)" in format_diff_table(diff)

    def test_schema2_snapshot_loads_but_is_incomparable(self, snap,
                                                        tmp_path):
        # A committed schema-2 baseline (no "perf" key, old host shape)
        # must still load fine and diverge as incomparable — not crash
        # on the missing ledger.
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
        diff = diff_runs(loaded, snap)
        assert diff.diverged and diff.rows[0].status == "incomparable"

    def test_missing_ledger_in_baseline_not_compared(self, snap):
        # Same schema but points without "perf" (defensive): the ledger
        # gate does not apply to them, and each gets a note.
        base = copy.deepcopy(snap)
        for p in base["points"]:
            p.pop("perf")
        diff = diff_runs(base, snap)
        assert not diff.diverged
        assert len(diff.notes) == 4
        assert "no ledger in run A" in diff.notes[0]


class TestCompareLedger:
    """The schema-3 ledger gate: deterministic structure exact on any
    host; self times ranked on one host and never gated."""

    def test_ledger_count_drift_fails_exactly(self, snap):
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere")
        row = cur["points"][0]["perf"]["ledger"]["rows"][0]
        row["count"] += 1
        diff = diff_runs(snap, cur)
        assert diff.diverged
        (bad,) = [r for r in diff.rows if r.status == "changed"]
        assert bad.metric == \
            f"perf.{row['kind']}/{row['name']}.count"
        assert (bad.a, bad.b) == (row["count"] - 1, row["count"])
        assert bad.note == "ledger count drifted"

    def test_ledger_row_vanished_fails(self, snap):
        cur = copy.deepcopy(snap)
        led = cur["points"][0]["perf"]["ledger"]
        led["rows"] = [r for r in led["rows"] if r["kind"] != "pass"]
        diff = diff_runs(snap, cur)
        assert diff.diverged
        bad = [r for r in diff.rows if r.status == "changed"]
        assert bad and all(
            (r.a, r.b, r.note) == ("present", "absent",
                                   "ledger row appeared/disappeared")
            for r in bad)

    def test_ledger_self_time_not_gated_cross_host(self, snap):
        # Self times are wall-clock: ranked on one host, not read on
        # another, and never a divergence on either.
        for host, moved in ((snap["host"], True),
                            (dict(snap["host"], node="elsewhere"), False)):
            cur = copy.deepcopy(snap)
            cur["host"] = host
            for p in cur["points"]:
                for r in p["perf"]["ledger"]["rows"]:
                    r["self_s"] += 10.0
            diff = diff_runs(snap, cur)
            assert not diff.diverged
            assert bool(diff.rows) is moved
            assert all(r.status == "regressed" for r in diff.rows)

    def test_host_mismatch_skip_message_names_fields(self, snap):
        # Across hosts self times are not compared, and the verdict
        # names every differing host field.
        cur = copy.deepcopy(snap)
        cur["host"] = dict(cur["host"], node="elsewhere", cores=9999)
        diff = diff_runs(snap, cur)
        assert not diff.wall_gated
        assert "node" in diff.host_note and "cores" in diff.host_note
        assert "self times not compared: hosts differ (cores: " in \
            format_diff_table(diff)


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
    def _run(self, path, *extra):
        argv = ["bench", "--apps", "simple", "--schemes", "base",
                "--procs-list", "1", "--n", "8", "--json", str(path)]
        return main(argv + list(extra))

    def test_two_runs_then_compare_pass(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self._run(a) == 0
        assert self._run(b) == 0
        assert read_run(a)["points"][0]["sim"] == \
            read_run(b)["points"][0]["sim"]
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        assert "verdict: SAME" in capsys.readouterr().out

    def test_compare_perturbed_baseline_exits_nonzero(self, tmp_path,
                                                      capsys):
        fresh = tmp_path / "fresh.json"
        assert self._run(fresh) == 0
        baseline = read_run(fresh)
        baseline["points"][0]["sim"]["total_time"] += 1.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        capsys.readouterr()
        assert main(["diff", str(doctored), str(fresh)]) == 1
        out = capsys.readouterr().out
        assert "sim.total_time" in out and "DIVERGED" in out

    def test_no_save_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # Without --json, bench only prints.
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--apps", "simple", "--schemes", "base",
                     "--procs-list", "1", "--n", "8"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert "simple" in capsys.readouterr().out

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 2
        assert "nope.json" in capsys.readouterr().err
        with pytest.raises(SystemExit, match="cannot write bench "
                                             "snapshot"):
            self._run(tmp_path / "no" / "such" / "dir.json")

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["bench", "--apps", "bogus"])
