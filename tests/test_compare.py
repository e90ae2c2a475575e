"""The one run comparator (:mod:`repro.obs.compare`) as its commands
use it: every run shape aligns on the same point keys, simulated
leaves — lists included — compare exactly in both ``bench --compare``
and ``repro diff``, and the committed bench baseline stores only what
a comparison reads."""

import copy
import json
import math
from pathlib import Path

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.bench import compare_snapshots, run_bench
from repro.obs.compare import read_run
from repro.obs.provenance import diff_runs
from repro.pipeline import reset_session
from repro.report import format_diff_table

BASELINE = (Path(__file__).resolve().parent.parent
            / "results" / "bench" / "BENCH_baseline.json")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    for var in ("REPRO_STORE_DIR", "REPRO_OBS", "REPRO_FAULTS"):
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
        assert "#1 simple/base/P1" in out
        assert "1 significant point of 6 compared" in out

    def test_perf_diff_aligns_every_batch_point(self, batch_pair, capsys):
        a, b = batch_pair
        capsys.readouterr()
        assert main(["perf", "diff", str(a), str(b), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n_points"] == 6
        assert not any("?/?/P?" in note for note in d["notes"])


class TestOneEqualityRule:
    """``bench --compare`` and ``repro diff`` judge simulated leaves by
    the same exact rule."""

    def _fails_both(self, base, cur, metric):
        cmp = compare_snapshots(base, cur)
        assert [r.metric for r in cmp.regressions] == [metric]
        diff = diff_runs(base, cur)
        assert diff.significant
        assert [d.metric for p in diff.points for d in p.deltas] == [metric]
        return diff

    def test_one_ulp_total_time_drift_fails(self, snap):
        cur = copy.deepcopy(snap)
        sim = cur["points"][0]["sim"]
        sim["total_time"] = math.nextafter(sim["total_time"], math.inf)
        self._fails_both(snap, cur, "sim.total_time")

    def test_heatmap_counts_drift_fails(self, snap):
        cur = copy.deepcopy(snap)
        cur["points"][0]["sim"]["locality"]["heatmap"]["counts"][0][0] += 1
        diff = self._fails_both(snap, cur, "sim.locality.heatmap.counts")
        assert "sim.locality.heatmap.counts" in format_diff_table(diff)
        payload = diff.as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestCommittedBaseline:
    def test_baseline_stores_only_compared_keys(self):
        # Neither sampled stacks nor timed repeats are read by any
        # comparison, and both change on every regeneration.
        baseline = read_run(BASELINE)
        assert baseline["points"]
        assert "repeats" not in baseline["config"]
        for p in baseline["points"]:
            assert "profile" not in p
            assert "wall" not in p
            assert set(p["perf"]) == {"ledger"}
