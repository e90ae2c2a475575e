"""Live monitoring end to end: ``repro status`` (once and
``--follow``) and ``repro report`` driven as real subprocesses against
a driver running (or killed) in *another* process — the cross-process
contract is the whole point — plus the guard that heartbeat emission
stays under 5% of the wall time of a run without heartbeats."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.pipeline.journal import (
    JournalState,
    journal_dir,
    read_records,
    resolve_run_id,
)
from tests.conftest import median_paired_overhead

REPO = Path(__file__).resolve().parent.parent
GRID = ["--apps", "simple", "--schemes", "base,comp,data",
        "--procs-list", "1,4", "--n", "10"]
SLOW_GRID = ["--apps", "simple,stencil5,lu", "--schemes", "base,comp,data",
             "--procs-list", "1,2,4", "--n", "48"]
# Every point's spmd pass sleeps 0.5 s, so GRID runs for ~3 s: long
# enough for several one-second `status --follow` refreshes.
STALLED = ["--inject-faults",
           "seed=1,pass.stall=1.0,stall_s=0.5,stall_pass=spmd"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    for var in ("REPRO_FAULTS", "REPRO_STORE_DIR", "REPRO_RESULTS_DIR"):
        env.pop(var, None)
    return env


def _repro(args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_env(), cwd=str(REPO),
        timeout=timeout,
    )


def _status_json(store, *extra):
    proc = _repro(["status", "--store-dir", str(store), "--json", *extra])
    payload = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, payload


def _follow_frames(store):
    """``status --follow --json``: its exit code and one parsed status
    per refresh."""
    proc = _repro(["status", "--follow", "--json",
                   "--store-dir", str(store)])
    return (proc.returncode,
            [json.loads(line) for line in proc.stdout.splitlines()])


class TestStatusCLI:
    def test_missing_store_exits_2(self, tmp_path):
        proc = _repro(["status", "--store-dir", str(tmp_path / "nope")])
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_finished_run_reports_complete(self, tmp_path):
        store = tmp_path / "store"
        done = _repro(["batch", *GRID, "--heartbeat", "0.1",
                       "--store-dir", str(store)])
        assert done.returncode == 0, done.stdout + done.stderr

        rc, st = _status_json(store)
        assert rc == 0
        assert st["state"] == "finished"
        assert st["finished"] == st["total"] == 6
        assert st["ok"] == 6 and st["in_flight"] == []
        assert st["pid_alive"] is False  # that driver already exited
        assert st["heartbeats"] >= 1
        assert st["scheme_matrix"]["simple"]["comp"] == [2, 2]

        text = _repro(["status", "--store-dir", str(store)])
        assert text.returncode == 0
        assert "state=finished" in text.stdout
        assert "6/6" in text.stdout

    def test_follow_finished_run_exits_with_state_code(self, tmp_path):
        store = tmp_path / "store"
        done = _repro(["batch", *GRID, "--heartbeat", "0.1",
                       "--store-dir", str(store)])
        assert done.returncode == 0, done.stdout + done.stderr
        rc, frames = _follow_frames(store)
        assert rc == 0
        assert [f["state"] for f in frames] == ["finished"]

    def test_follow_streams_live_driver_until_finished(self, tmp_path):
        """``--follow`` refreshes from another process until the run's
        end record lands, then exits 0."""
        store = tmp_path / "store"
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", *GRID, *STALLED,
             "--heartbeat", "0.1", "--store-dir", str(store)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_env(), cwd=str(REPO),
        )
        try:
            while _status_json(store)[0] == 2:  # no journal yet
                assert driver.poll() is None, "driver exited early"
                time.sleep(0.1)
            rc, frames = _follow_frames(store)
        finally:
            assert driver.wait(timeout=120) == 0
        assert rc == 0
        assert len(frames) >= 2
        assert frames[0]["state"] == "running"
        assert frames[-1]["state"] == "finished"
        assert frames[-1]["finished"] == frames[-1]["total"] == 6
        assert [f["finished"] for f in frames] == \
            sorted(f["finished"] for f in frames)

    def test_status_of_live_driver_in_another_process(self, tmp_path):
        """The acceptance path: a separate process polls a running
        grid's journal and sees sane progress until it finishes."""
        store = tmp_path / "store"
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", *SLOW_GRID,
             "--heartbeat", "0.1",
             "--store-dir", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_env(), cwd=str(REPO),
        )
        seen_running = None
        try:
            while driver.poll() is None:
                rc, st = _status_json(store)
                if rc == 2:   # journal not created yet
                    time.sleep(0.1)
                    continue
                assert rc in (0, 3)
                if st["state"] == "running":
                    seen_running = st
                assert 0 <= st["finished"] <= st["total"]
                time.sleep(0.2)
        finally:
            out, err = driver.communicate(timeout=300)
        assert driver.returncode == 0, out + err

        if seen_running is None:
            pytest.skip("grid finished before a poll caught it running")
        # A mid-run snapshot from another process was coherent.
        assert seen_running["pid"] == driver.pid
        assert seen_running["pid_alive"] is True
        assert seen_running["finished"] < seen_running["total"]
        if seen_running["executed"]:
            assert seen_running["ewma_latency"] > 0
            assert seen_running["eta"] is not None

        rc, st = _status_json(store)
        assert rc == 0 and st["state"] == "finished"
        assert st["finished"] == st["total"]


def _kill_orphans(marker):
    """SIGKILL leftover pool workers of a SIGKILL'd driver.

    The driver dies without tearing down its ProcessPoolExecutor, so
    the (forked) workers linger blocked on the call queue; they share
    the driver's cmdline, which contains the test's unique store path.
    """
    me = os.getpid()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == me:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmdline:
            try:
                os.kill(int(entry.name), signal.SIGKILL)
            except OSError:
                pass


class TestKilledDriver:
    def test_sigkilled_driver_reports_interrupted_with_in_flight(
            self, tmp_path):
        """driver.kill SIGKILLs the driver right after the first done
        record; with --jobs 2 the whole 6-point wave was already
        dispatched (start records journaled), so exactly 5 points are
        mid-flight when the process dies."""
        store = tmp_path / "store"
        # No captured pipes here: the orphaned workers would inherit
        # them and keep them open long after the driver is dead.
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", *GRID,
             "--jobs", "2", "--heartbeat", "0.1",
             "--store-dir", str(store),
             "--inject-faults", "seed=1,driver.kill=1.0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_env(), cwd=str(REPO),
        )
        try:
            assert driver.wait(timeout=120) == -signal.SIGKILL
        finally:
            _kill_orphans(str(store))

        rc, st = _status_json(store)
        assert rc == 3  # interrupted/stale exit code
        assert st["state"] == "interrupted"
        assert st["finished"] == 1
        assert len(st["in_flight"]) == 5
        # The CLI's count is exactly the journal's start-without-done set.
        jdir = journal_dir(store)
        state = JournalState.load(
            jdir / f"{resolve_run_id(jdir, 'latest')}.jsonl")
        assert [e["i"] for e in st["in_flight"]] == state.in_flight

        # --follow stops at the dead run's first frame with the same
        # exit code.
        rc, frames = _follow_frames(store)
        assert rc == 3
        assert [f["state"] for f in frames] == ["interrupted"]

        # Satellite: --resume surfaces the mid-flight points it will
        # re-execute with a full retry budget.
        resumed = _repro(["batch", "--resume", "latest",
                          "--store-dir", str(store)])
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "5 points were mid-flight" in resumed.stdout

        rc, st = _status_json(store)
        assert rc == 0 and st["state"] == "finished"


class TestLongPoint:
    def test_driver_heartbeats_while_a_point_runs(self, tmp_path):
        """A parallel driver waiting on one long point keeps
        heartbeating: the executor ticks the journal in every 0.2 s
        wait slice, so several heartbeats land between the point's
        start and done records."""
        store = tmp_path / "store"
        done = _repro(["batch", "--apps", "simple", "--schemes", "base",
                       "--procs-list", "1", "--n", "8", "--jobs", "2",
                       "--heartbeat", "0.05", "--store-dir", str(store),
                       "--inject-faults",
                       "seed=1,pass.stall=1.0,stall_s=1.0,"
                       "stall_pass=spmd"])
        assert done.returncode == 0, done.stdout + done.stderr
        jdir = journal_dir(store)
        records, _, _ = read_records(
            jdir / f"{resolve_run_id(jdir, 'latest')}.jsonl")
        kinds = [r["type"] for r in records]
        between = kinds[kinds.index("start"):kinds.index("done")]
        assert between.count("heartbeat") >= 3, kinds

        proc = _repro(["report", "--store-dir", str(store),
                       "--json", "-"])
        assert proc.returncode == 0, proc.stderr
        curves = json.loads(proc.stdout)["series"]["curves"]
        assert curves["finished"][-1][1] == 1


class TestReportCLI:
    def test_html_report_is_self_contained(self, tmp_path):
        store = tmp_path / "store"
        done = _repro(["batch", *GRID, "--heartbeat", "0.05",
                       "--store-dir", str(store)])
        assert done.returncode == 0, done.stdout + done.stderr

        html_path = tmp_path / "report.html"
        json_path = tmp_path / "report.json"
        proc = _repro(["report", "--store-dir", str(store),
                       "--html", str(html_path),
                       "--json", str(json_path)])
        assert proc.returncode == 0, proc.stdout + proc.stderr

        payload = json.loads(json_path.read_text())
        assert payload["schema"] == 1
        assert payload["status"]["state"] == "finished"
        assert len(payload["points"]) == 6

        html = html_path.read_text()
        assert html.lstrip().lower().startswith("<!doctype html")
        assert "run report" in html and "time series" in html
        # Self-contained: rendered from the journal alone, with no
        # external scripts, stylesheets, or images.
        body = html.split("</title>", 1)[1].lower()
        for needle in ("http://", "https://", "<script src",
                       "<link rel", "<img"):
            assert needle not in body
        assert "finished" in html

    def test_report_text_mode_and_missing_run(self, tmp_path):
        assert _repro(["report", "--store-dir",
                       str(tmp_path / "nope")]).returncode == 2
        store = tmp_path / "store"
        done = _repro(["batch", *GRID,
                       "--store-dir", str(store)])
        assert done.returncode == 0, done.stdout + done.stderr
        proc = _repro(["report", "--store-dir", str(store)])
        assert proc.returncode == 0
        assert "state=finished" in proc.stdout


class TestOverhead:
    def test_monitoring_overhead_under_5_percent(self, tmp_path):
        """Heartbeats add < 5% wall time to a journaled grid run
        (median of alternated pairs against the same run with
        heartbeats off)."""
        from repro import pipeline
        from repro.pipeline.grid import GridPoint, run_grid
        from repro.pipeline.journal import JournalWriter

        obs.disable()
        obs.reset()
        points = [
            GridPoint(app="simple", scheme=s, nprocs=p, n=8, time_steps=2)
            for s in ("base", "comp") for p in (1, 4)
        ]
        spec = {"points": [], "degrade": True, "locality": False}
        jdir = tmp_path / "journal"

        def _run(heartbeat):
            pipeline.reset_session()  # same cold compile work each arm
            writer = JournalWriter.create(jdir, spec, heartbeat=heartbeat)
            run_grid(points, cache=False, journal=writer)
            writer.end("complete", executed=len(points))
            writer.close()

        _run(0.05)  # warm imports and numpy caches
        overhead, floor = median_paired_overhead(lambda: _run(0.05),
                                                 lambda: _run(0))
        # 5% relative margin plus 5ms absolute slack for timer noise.
        assert overhead <= floor * 0.05 + 0.005, (
            f"monitoring overhead too high: {overhead:+.4f}s over "
            f"floor {floor:.4f}s"
        )
