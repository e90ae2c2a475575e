"""The one judge of two runs, ``repro diff``
(:func:`repro.obs.compare.diff_runs`): every run shape aligns on the
same point keys, simulated leaves — lists included — compare exactly,
wall-clock numbers go through one noise rule and never gate, and the
committed bench baseline stores only what the judge reads and still
agrees with a fresh run."""

import copy
import json
import math
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.bench import run_bench
from repro.obs.compare import diff_runs, host_fingerprint, read_run
from repro.pipeline import reset_session
from repro.report import format_diff_table

BASELINE = (Path(__file__).resolve().parent.parent
            / "results" / "bench" / "BENCH_baseline.json")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in ("REPRO_STORE_DIR", "REPRO_FAULTS"):
        monkeypatch.delenv(var, raising=False)
    obs.disable()
    obs.reset()
    reset_session()
    yield
    obs.disable()
    obs.reset()
    reset_session()


@pytest.fixture(scope="module")
def snap():
    """A small bench snapshot, shared read-only (deep-copy before
    mutating)."""
    return run_bench(apps=["simple"], schemes=["base"], procs=[1, 2],
                     n=8)


@pytest.fixture
def batch_pair(tmp_path):
    """Two ``batch --json`` files of one 6-point grid that differ only
    in point 0's simulated time."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["batch", "--apps", "simple", "--schemes", "base,comp,data",
                 "--procs-list", "1,4", "--n", "8", "--no-cache",
                 "--json", str(a)]) == 0
    data = json.loads(a.read_text())
    data["results"][0]["total_time"] *= 2.0
    b.write_text(json.dumps(data))
    return a, b


class TestBatchJsonRuns:
    def test_diff_aligns_every_batch_point(self, batch_pair, capsys):
        a, b = batch_pair
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "point simple/base/P1" in out
        assert "DIVERGED (1 diverging point; 6 points compared)" in out

    def test_perf_diff_aligns_every_batch_point(self, batch_pair, capsys):
        # The JSON form, which the perf CI job parses, keys every
        # batch point by app/scheme/procs as the table does.
        a, b = batch_pair
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--json"]) == 1
        d = json.loads(capsys.readouterr().out)
        assert d["n_compared"] == 6
        assert not any("?" in r["point"] for r in d["rows"])
        assert [r["metric"] for r in d["rows"]
                if r["status"] == "changed"] == ["sim.total_time"]

    def test_elapsed_goes_through_the_noise_rule(self, batch_pair):
        # A batch row's one wall number is judged like a ledger self
        # time: past 30% and 10 ms it is ranked, under either it is
        # quiet, and it never makes the runs differ.
        a = read_run(batch_pair[0])
        b = copy.deepcopy(a)
        b["results"][0]["elapsed"] += 5.0
        b["results"][1]["elapsed"] *= 1.05
        b["results"][2]["elapsed"] += 0.005
        diff = diff_runs(a, b)
        assert not diff.diverged
        assert [(r.point, r.metric, r.status) for r in diff.rows] == [
            ("simple/base/P1", "wall.elapsed", "regressed")]

    def test_batch_json_records_its_host(self, batch_pair):
        assert read_run(batch_pair[0])["host"] == host_fingerprint()

    def test_elapsed_not_ranked_without_a_host(self, batch_pair):
        # A run that records no host may come from any machine, so its
        # wall numbers are not compared, and the note says which run.
        a = read_run(batch_pair[0])
        a.pop("host", None)
        b = copy.deepcopy(a)
        b["results"][0]["elapsed"] += 5.0
        diff = diff_runs(a, b)
        assert not diff.diverged and not diff.wall_gated
        assert not any(r.status == "regressed" for r in diff.rows)
        assert diff.host_note == "no host recorded in run A and B"
        assert ("self times not compared: no host recorded in run A and B"
                in format_diff_table(diff))
        b["host"] = host_fingerprint()
        assert diff_runs(a, b).host_note == "no host recorded in run A"


class TestOneEqualityRule:
    """Every ``sim.*`` leaf is judged by exact ``==``, lists
    included."""

    def _diverges_on(self, base, cur, metric):
        diff = diff_runs(base, cur)
        assert diff.diverged
        assert [r.metric for r in diff.rows
                if r.status == "changed"] == [metric]
        return diff

    def test_one_ulp_total_time_drift_fails(self, snap):
        cur = copy.deepcopy(snap)
        sim = cur["points"][0]["sim"]
        sim["total_time"] = math.nextafter(sim["total_time"], math.inf)
        self._diverges_on(snap, cur, "sim.total_time")

    def test_heatmap_counts_drift_fails(self, snap):
        cur = copy.deepcopy(snap)
        cur["points"][0]["sim"]["locality"]["heatmap"]["counts"][0][0] += 1
        diff = self._diverges_on(snap, cur, "sim.locality.heatmap.counts")
        assert "sim.locality.heatmap.counts" in format_diff_table(diff)
        payload = diff.as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestCommittedBaseline:
    def test_baseline_stores_only_compared_keys(self):
        # The baseline stores no key that no comparison reads (timed
        # repeats, a profile, a wall block, anything under "perf" but
        # the ledger): such keys change on every regeneration.
        baseline = read_run(BASELINE)
        assert baseline["points"]
        assert "repeats" not in baseline["config"]
        for p in baseline["points"]:
            assert "profile" not in p
            assert "wall" not in p
            assert set(p["perf"]) == {"ledger"}

    def test_fresh_bench_agrees_with_baseline(self, tmp_path, capsys):
        # CI's bench gate, end to end: a fresh snapshot at the
        # baseline's grid must agree with the committed one.
        fresh = tmp_path / "bench.json"
        assert main(["bench", "--json", str(fresh)]) == 0
        assert read_run(fresh)["config"] == read_run(BASELINE)["config"]
        capsys.readouterr()
        assert main(["diff", str(BASELINE), str(fresh)]) == 0
        assert "runs identical: 12 points compared" in \
            capsys.readouterr().out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A fresh snapshot of the committed baseline's grid, on disk."""
    path = tmp_path_factory.mktemp("fresh") / "bench.json"
    path.write_text(json.dumps(run_bench()))
    return path


class TestFormerDisagreements:
    """A fresh snapshot against the committed baseline with one field
    doctored: each of these once passed one of the three judges this
    repository had and failed another.  ``repro diff`` fails all
    three."""

    def _diff(self, tmp_path, capsys, fresh, doctor):
        baseline = read_run(BASELINE)
        doctor(baseline)
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(baseline))
        capsys.readouterr()
        rc = main(["diff", str(path), str(fresh), "--json"])
        return rc, json.loads(capsys.readouterr().out)

    def test_vanished_numa_block_diverges(self, tmp_path, capsys, fresh):
        rc, d = self._diff(tmp_path, capsys, fresh,
                           lambda run: run["points"][0]["sim"].pop("numa"))
        assert rc == 1
        changed = [r for r in d["rows"] if r["status"] == "changed"]
        assert {r["metric"] for r in changed} == {
            "sim.numa.local_misses", "sim.numa.remote_misses",
            "sim.numa.local_ratio"}

    def test_ledger_count_drift_diverges(self, tmp_path, capsys, fresh):
        def doctor(run):
            run["points"][0]["perf"]["ledger"]["rows"][0]["count"] += 1

        rc, d = self._diff(tmp_path, capsys, fresh, doctor)
        assert rc == 1
        (row,) = [r for r in d["rows"] if r["status"] == "changed"]
        assert row["metric"].startswith("perf.")
        assert row["metric"].endswith(".count")

    def test_point_in_second_run_only_diverges(self, tmp_path, capsys,
                                               fresh):
        def doctor(run):
            run["points"] = run["points"][1:]

        rc, d = self._diff(tmp_path, capsys, fresh, doctor)
        assert rc == 1
        assert [(r["point"], r["status"]) for r in d["rows"]] == [
            ("simple/base/P1", "missing")]
