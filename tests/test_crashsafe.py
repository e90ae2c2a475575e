"""Crash-safety chaos tests: a SIGKILL'd driver resumed through the
result store with identical simulated outcomes, two
concurrent drivers sharing one store, graceful SIGTERM drain, and
full-disk / torn-write chaos sweeps.

These drive the real CLI in real subprocesses — the journal's fsync
guarantees and drivers sharing one store without a lock only mean
anything across actual process boundaries.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.pipeline.integrity import fsck_store
from repro.pipeline.journal import JournalState, journal_dir, resolve_run_id
from repro.pipeline.store import DEFAULT_KEEP, ResultStore
from tests.conftest import pass_invocations

REPO = Path(__file__).resolve().parent.parent
GRID = ["--apps", "simple", "--schemes", "base,comp,data",
        "--procs-list", "1,4", "--n", "10"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    for var in ("REPRO_FAULTS", "REPRO_STORE_DIR"):
        env.pop(var, None)
    return env


def _batch(extra, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", "batch", *extra],
        capture_output=True, text=True, env=_env(), cwd=str(REPO),
        timeout=timeout,
    )


def _fsck(store, *extra):
    return subprocess.run(
        [sys.executable, "-m", "repro", "fsck", "--store-dir",
         str(store), *extra],
        capture_output=True, text=True, env=_env(), cwd=str(REPO),
        timeout=120,
    )


class TestKillResume:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        store_a = tmp_path / "store-a"
        # 1. driver.kill=1.0: SIGKILL the driver right after the first
        #    point's result is journaled.
        killed = _batch([*GRID, "--store-dir", str(store_a),
                         "--inject-faults", "seed=1,driver.kill=1.0"])
        assert killed.returncode == -signal.SIGKILL
        jdir = journal_dir(store_a)
        run_id = resolve_run_id(jdir, "latest")
        state = JournalState.load(jdir / f"{run_id}.jsonl")
        state.validate()
        assert not state.complete  # no end record: the crash window
        assert sorted(state.finished) == [0]

        # 2. Resume: the stored point is served and exactly the other
        #    5 execute — --expect-incremental makes the CLI the gate.
        out_a = tmp_path / "resumed.json"
        resumed = _batch(["--resume", "latest",
                          "--store-dir", str(store_a),
                          "--expect-incremental", "5",
                          "--json", str(out_a)])
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "resuming" in resumed.stdout

        # 3. An uninterrupted run from the same cold start.
        out_b = tmp_path / "uninterrupted.json"
        plain = _batch([*GRID,
                        "--store-dir", str(tmp_path / "store-b"),
                        "--json", str(out_b)])
        assert plain.returncode == 0, plain.stdout + plain.stderr

        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        # The resume contract: the point the killed run stored is
        # served, the other 5 execute, and every simulated outcome
        # matches the uninterrupted run point by point (elapsed is
        # wall-clock).  A served point carries no pass counters; each
        # executed one invokes every pass exactly as often (runs + hits
        # per pass name), though the resuming process's cold artifact
        # cache splits them into runs and hits differently.
        sa, sb = a["summary"], b["summary"]
        assert (sa["store_hits"], sa["executed"]) == (1, 5)
        assert set(sa) == set(sb)
        for key in ("points", "ok", "errors", "degraded", "retried"):
            assert sa[key] == sb[key], key
        for ra, rb in zip(a["results"], b["results"]):
            for field in ("point", "ok", "total_time", "n_accesses",
                          "miss_breakdown", "degraded", "attempts"):
                assert ra[field] == rb[field], field
            if not ra["store_hit"]:
                assert pass_invocations(ra) == pass_invocations(rb)
        # The journal knows the run finished this time.
        state = JournalState.load(jdir / f"{run_id}.jsonl")
        assert state.complete

        # 4. Nothing in the store was damaged along the way.
        assert _fsck(store_a, "--strict").returncode == 0

    def test_resume_of_complete_run_executes_nothing(self, tmp_path):
        store = tmp_path / "store"
        done = _batch([*GRID, "--store-dir", str(store)])
        assert done.returncode == 0
        again = _batch(["--resume", "latest",
                        "--store-dir", str(store),
                        "--expect-incremental", "0"])
        assert again.returncode == 0, again.stdout + again.stderr
        assert "already completed" in again.stdout

    def test_resume_refuses_unknown_run(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        proc = _batch(["--resume", "RUN_nope",
                       "--store-dir", str(store)])
        assert proc.returncode != 0
        assert "resume" in proc.stderr.lower()


class TestConcurrentDrivers:
    def test_two_drivers_share_one_store(self, tmp_path):
        """Two drivers race the same --store-dir; every entry must stay
        consistent (no lost updates, no corrupt entries)."""
        store = tmp_path / "store"
        procs = []
        for _ in range(2):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "batch", *GRID,
                 "--store-dir", str(store)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=_env(), cwd=str(REPO),
            ))
        for p in procs:
            out, err = p.communicate(timeout=180)
            assert p.returncode == 0, out + err
        # Every coordinate present, every entry verifiable.
        assert _fsck(store, "--strict").returncode == 0
        warm = _batch([*GRID, "--store-dir", str(store),
                       "--incremental", "--expect-incremental", "0"])
        assert warm.returncode == 0, warm.stdout + warm.stderr


class TestFsckDuringBatch:
    def test_fsck_while_drivers_write_finds_no_damage(self, tmp_path):
        """fsck takes no lock, so it can scan while drivers write.  The
        store starts at its entry cap, so two drivers on one grid both
        evict old entries and replace each other's while fsck scans:
        neither is damage."""
        store_dir = tmp_path / "store"
        filler = ResultStore(store_dir, fsync=False)
        filler._evict = lambda: None
        for i in range(DEFAULT_KEEP):
            filler.put(f"filler{i}", "k", {"v": i})
        for path in filler._entries():
            os.utime(path, (1, 1))  # older than anything a driver writes
        procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", *GRID,
             "--store-dir", str(store_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_env(), cwd=str(REPO)) for _ in range(2)]
        reports = []
        try:
            while any(p.poll() is None for p in procs):
                reports.append(fsck_store(ResultStore(store_dir)))
        finally:
            for p in procs:
                p.wait(timeout=180)
        assert [p.returncode for p in procs] == [0, 0]
        assert reports and all(r.clean for r in reports), \
            [r.problems for r in reports if not r.clean]
        # Every grid point is stored; racing evictions may at worst
        # both drop an old entry.
        store = ResultStore(store_dir)
        coords = [store.read_entry(p)["coord"] for p in store._entries()]
        assert len(coords) <= DEFAULT_KEEP
        assert sum(not c.startswith("filler") for c in coords) == 6
        assert _fsck(store_dir, "--strict").returncode == 0


class TestGracefulShutdown:
    def test_sigterm_exits_130_with_resume_hint(self, tmp_path):
        store = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch",
             "--apps", "simple,stencil5,lu",
             "--schemes", "base,comp,data",
             "--procs-list", "1,2,4,8", "--n", "64",
             "--store-dir", str(store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=_env(), cwd=str(REPO),
        )
        # Signal once the first point is stored: the driver is past its
        # setup and most of the grid is still to run, however fast the
        # simulator is (a fixed sleep let the whole grid finish first).
        deadline = time.monotonic() + 60
        while (not any(store.glob("v2/*/*.json")) and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        if proc.returncode == 0:
            pytest.skip("grid finished before the signal landed")
        assert proc.returncode == 130, out + err
        assert "resume with" in err
        resumed = _batch(["--resume", "latest",
                          "--store-dir", str(store)],
                         timeout=300)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert _fsck(store, "--strict").returncode == 0


class TestDiskChaos:
    def test_enospc_never_fails_the_run(self, tmp_path):
        store = tmp_path / "store"
        proc = _batch([*GRID, "--store-dir", str(store),
                       "--inject-faults", "seed=3,disk.enospc=0.3"])
        # Store/journal writes fail and are counted, points still
        # complete: durability degrades, correctness does not.
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # A failed write leaves no entry behind; one repair pass, then
        # strict is clean.
        _fsck(store)
        assert _fsck(store, "--strict").returncode == 0

    def test_torn_writes_are_caught_by_fsck(self, tmp_path):
        store = tmp_path / "store"
        proc = _batch([*GRID, "--store-dir", str(store),
                       "--inject-faults", "seed=5,disk.torn_write=0.5"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # First fsck may find (and quarantine) torn entries;
        # a second strict pass must come back clean.
        _fsck(store)
        assert _fsck(store, "--strict").returncode == 0
        # The store still serves whatever survived; the rest re-runs.
        warm = _batch([*GRID, "--store-dir", str(store),
                       "--incremental"])
        assert warm.returncode == 0, warm.stdout + warm.stderr
