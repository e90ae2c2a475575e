"""Fault injection + hardening (PR-3): deterministic fault plans, the
cache's corrupt-entry quarantine, batch retry/respawn/timeout paths,
graceful degradation, and CLI validation.

The worker crash/stall tests drive real ``ProcessPoolExecutor`` pools
whose workers die mid-grid; the assertions are that the driver always
returns a complete, ordered result list with per-point error records —
never an unhandled exception.
"""

import pytest

from repro import faults, obs
from repro.__main__ import main
from repro.errors import CompileError, FaultInjected, ReproError
from repro.pipeline import ArtifactCache, CompileSession, MISS, reset_session
from repro.pipeline.grid import GridPoint, run_grid, summarize
from repro.pipeline.passes import DecomposePass


def _pristine_faults():
    """Unconfigured lazy state: the next probe re-reads the env (so
    forked batch workers pick up a monkeypatched ``REPRO_FAULTS``)."""
    faults._plan = None
    faults._configured = False
    faults._counts.clear()


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    _pristine_faults()
    obs.disable()
    obs.reset()
    reset_session()
    yield
    _pristine_faults()
    obs.disable()
    obs.reset()
    reset_session()


class TestFaultPlan:
    def test_parse_and_round_trip(self):
        plan = faults.FaultPlan.parse(
            "seed=7, stall_s=5, cache.read=0.3, worker.crash=0.2"
        )
        assert plan.seed == 7
        assert plan.stall_seconds == 5.0
        assert plan.rate("cache.read") == 0.3
        assert plan.rate("worker.crash") == 0.2
        assert plan.rate("pass") == 0.0
        again = faults.FaultPlan.parse(plan.spec())
        assert again == plan

    def test_disk_and_driver_sites_are_valid(self):
        plan = faults.FaultPlan.parse(
            "seed=1,disk.enospc=0.2,disk.torn_write=0.3,driver.kill=1.0"
        )
        assert plan.rate("disk.enospc") == 0.2
        assert plan.rate("disk.torn_write") == 0.3
        assert plan.rate("driver.kill") == 1.0
        assert faults.FaultPlan.parse(plan.spec()) == plan

    def test_driver_kill_is_noop_when_inactive(self):
        # Unconfigured: must never signal the calling process.
        faults.maybe_driver_kill()
        faults.configure("seed=1,driver.kill=0.0")
        faults.maybe_driver_kill()  # rate 0: also a no-op

    def test_pass_stall_site_and_target_round_trip(self):
        assert "pass.stall" in faults.SITES
        plan = faults.FaultPlan.parse(
            "seed=1,pass.stall=1.0,stall_s=0.25,stall_pass=layout"
        )
        assert plan.rate("pass.stall") == 1.0
        assert plan.stall_pass == "layout"
        assert faults.FaultPlan.parse(plan.spec()) == plan

    def test_pass_stall_inactive_is_noop(self):
        # Unconfigured, and configured-but-untargeted: no sleep call.
        faults.maybe_pass_stall("layout")
        faults.configure("seed=1,pass.stall=0.0")
        faults.maybe_pass_stall("layout")

    def test_parse_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.FaultPlan.parse("bogus=0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate outside"):
            faults.FaultPlan.parse("cache.read=1.5")
        with pytest.raises(ValueError, match="key=value"):
            faults.FaultPlan.parse("cache.read")

    def test_deterministic_sequence(self):
        faults.configure("seed=3,cache.read=0.5")
        seq1 = [faults.should_fire("cache.read") for _ in range(64)]
        faults.configure("seed=3,cache.read=0.5")
        seq2 = [faults.should_fire("cache.read") for _ in range(64)]
        assert seq1 == seq2
        assert True in seq1 and False in seq1  # rate 0.5 mixes both
        faults.configure("seed=4,cache.read=0.5")
        seq3 = [faults.should_fire("cache.read") for _ in range(64)]
        assert seq3 != seq1  # seed matters

    def test_inactive_by_default(self):
        assert not faults.active()
        assert not faults.should_fire("cache.read")
        faults.check("pass")  # no-op

    def test_check_raises_typed_error(self):
        faults.configure("seed=1,pass=1.0")
        with pytest.raises(FaultInjected) as ei:
            faults.check("pass", app="simple")
        assert isinstance(ei.value, ReproError)
        assert ei.value.context()["app"] == "simple"


class TestCacheQuarantine:
    def test_injected_read_corruption_is_quarantined(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("cafecafe", {"x": 1})
        path = cache._disk_path("cafecafe")
        assert path.exists()
        faults.configure("seed=1,cache.read=1.0")
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("cafecafe") is MISS  # never crashes
        assert fresh.stats.corrupt == 1
        assert not path.exists()  # moved aside
        qdir = path.parent.parent / "quarantine"
        assert any(qdir.iterdir())

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("deadd00d", {"x": 2})
        path = cache._disk_path("deadd00d")
        path.write_bytes(path.read_bytes()[:7])  # truncate
        fresh = ArtifactCache(disk_dir=tmp_path)
        assert fresh.get("deadd00d") is MISS
        assert fresh.stats.corrupt == 1
        assert not path.exists()

    def test_quarantine_dir_is_capped(self, tmp_path, monkeypatch):
        from repro.pipeline import cache as cache_mod

        monkeypatch.setattr(cache_mod, "QUARANTINE_KEEP", 3)
        obs.enable(reset=True)
        cache = ArtifactCache(disk_dir=tmp_path)
        for i in range(8):
            key = f"badc0de{i:02d}"
            cache.put(key, {"i": i})
            cache._disk_path(key).write_bytes(b"garbage")
            fresh = ArtifactCache(disk_dir=tmp_path)
            assert fresh.get(key) is MISS
        qdir = cache._disk_path("badc0de00").parent.parent / "quarantine"
        kept = [p for p in qdir.iterdir() if p.is_file()]
        assert len(kept) <= 3  # newest K survive a corruption storm
        counters = obs.collector().metrics.snapshot()["counters"]
        assert counters["cache.quarantine.evicted"] == 5

    def test_injected_write_fault_stays_memory_only(self, tmp_path):
        faults.configure("seed=1,cache.write=1.0")
        cache = ArtifactCache(disk_dir=tmp_path)
        cache.put("feedface", {"x": 3})
        assert cache.stats.disk_errors == 1
        assert cache.stats.disk_stores == 0
        assert cache.get("feedface") == {"x": 3}  # memory layer serves

    def test_fully_faulted_disk_cache_batch_completes(self, tmp_path):
        faults.configure("seed=2,cache.read=1.0,cache.write=1.0")
        points = [
            GridPoint(app="simple", scheme=s, nprocs=p, n=8)
            for s in ("base", "data") for p in (1, 2)
        ]
        results = run_grid(points, jobs=1, disk_dir=str(tmp_path))
        assert [r.ok for r in results] == [True] * len(points)


class TestPipelineFaults:
    def test_pass_fault_becomes_typed_error(self):
        from repro.apps import build_app
        from repro.codegen.spmd import Scheme

        faults.configure("seed=1,pass=1.0")
        with pytest.raises(ReproError):
            CompileSession(cache=None).compile(
                build_app("simple", n=8), Scheme.BASE, 2
            )

    def test_foreign_exception_wrapped_with_context(self, monkeypatch):
        from repro.apps import build_app
        from repro.codegen.spmd import Scheme

        def boom(self, ctx):
            raise RuntimeError("boom")

        monkeypatch.setattr(DecomposePass, "run", boom)
        with pytest.raises(CompileError) as ei:
            CompileSession(cache=None).compile(
                build_app("simple", n=8), Scheme.COMP_DECOMP, 2
            )
        assert "decompose" in str(ei.value)
        assert ei.value.context()["app"] == "simple"


class TestDegradation:
    def test_broken_scheme_degrades_to_base(self, monkeypatch):
        def boom(self, ctx):
            raise RuntimeError("decomposition exploded")

        monkeypatch.setattr(DecomposePass, "run", boom)
        points = [
            GridPoint(app="simple", scheme="data", nprocs=2, n=8),
            GridPoint(app="simple", scheme="base", nprocs=2, n=8),
        ]
        results = run_grid(points, jobs=1)
        assert results[0].ok and results[0].degraded
        assert "decomposition exploded" in results[0].degrade_reason
        assert results[1].ok and not results[1].degraded
        assert summarize(results)["degraded"] == 1

    def test_no_degrade_keeps_error(self, monkeypatch):
        def boom(self, ctx):
            raise RuntimeError("decomposition exploded")

        monkeypatch.setattr(DecomposePass, "run", boom)
        points = [GridPoint(app="simple", scheme="data", nprocs=2, n=8)]
        results = run_grid(points, jobs=1, degrade=False)
        assert not results[0].ok
        assert "decomposition exploded" in results[0].error


class TestBatchWorkerFaults:
    POINTS = [
        GridPoint(app="simple", scheme="base", nprocs=1, n=8),
        GridPoint(app="simple", scheme="data", nprocs=2, n=8),
    ]

    def test_worker_raising_is_isolated_in_parallel(self):
        points = [
            self.POINTS[0],
            GridPoint(app="nosuchapp", scheme="base", nprocs=1, n=8),
            self.POINTS[1],
        ]
        results = run_grid(points, jobs=2)
        assert [r.ok for r in results] == [True, False, True]
        assert "nosuchapp" in results[1].error

    def test_worker_crash_retries_then_fails(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=1,worker.crash=1.0")
        results = run_grid(self.POINTS, jobs=2, retries=1, backoff=0.01)
        assert len(results) == len(self.POINTS)
        for r in results:
            assert not r.ok
            assert r.attempts == 2  # initial try + one retry
            assert "pool broken" in r.error

    def test_worker_stall_hits_timeout(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "seed=1,worker.stall=1.0,stall_s=60"
        )
        results = run_grid(self.POINTS[:1], jobs=2, timeout=1.5,
                           retries=0, backoff=0.01)
        assert len(results) == 1
        assert not results[0].ok
        assert "timeout" in results[0].error

    def test_serial_retry_counts_attempts(self, monkeypatch):
        calls = {"n": 0}
        real = CompileSession.compile

        def flaky(self, prog, scheme, nprocs, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(self, prog, scheme, nprocs, **kw)

        monkeypatch.setattr(CompileSession, "compile", flaky)
        results = run_grid(self.POINTS[:1], jobs=1, retries=2,
                           backoff=0.0, degrade=False)
        assert results[0].ok
        assert results[0].attempts == 2


class TestCliValidation:
    def test_rejects_nonpositive_numbers(self):
        for argv in (
            ["batch", "--procs-list", "0"],
            ["batch", "--jobs", "-1"],
            ["batch", "--retries", "-2"],
            ["batch", "--timeout", "0"],
            ["run", "simple", "--n", "0"],
            ["verify", "--n", "0"],
            ["decompose", "simple", "--procs", "0"],
        ):
            with pytest.raises(SystemExit) as ei:
                main(argv)
            assert ei.value.code == 2, argv

    def test_rejects_empty_grids(self):
        with pytest.raises(SystemExit):
            main(["batch", "--apps", " "])
        with pytest.raises(SystemExit):
            main(["batch", "--apps", "simple", "--schemes", ","])
        with pytest.raises(SystemExit) as ei:
            main(["batch", "--procs-list", ","])
        assert ei.value.code == 2

    def test_rejects_bad_fault_spec(self):
        with pytest.raises(SystemExit, match="unknown fault site"):
            main(["batch", "--apps", "simple", "--n", "8",
                  "--inject-faults", "bogus=1"])

    def test_chaos_batch_cli_completes(self, capsys, tmp_path):
        rc = main([
            "batch", "--apps", "simple", "--schemes", "base,data",
            "--procs-list", "1,2", "--n", "8", "--retries", "3",
            "--backoff", "0.01", "--cache-dir", str(tmp_path),
            "--inject-faults", "seed=7,cache.read=0.5,cache.write=0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "errors: 0" in out
        # The CLI cleared the injected plan after the batch.
        assert not faults.active()
