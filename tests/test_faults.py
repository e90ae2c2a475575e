"""Fault injection + hardening (PR-3): deterministic fault plans,
batch retry/respawn/timeout paths, graceful degradation, and CLI
validation.

The worker crash/stall tests drive real ``ProcessPoolExecutor`` pools
whose workers die mid-grid; the assertions are that the driver always
returns a complete, ordered result list with per-point error records —
never an unhandled exception.
"""

import pytest

from repro import faults, obs
from repro.__main__ import main
from repro.errors import CompileError, FaultInjected, ReproError
from repro.pipeline import CompileSession, passes, reset_session
from repro.pipeline.grid import GridPoint, run_grid, summarize


def _pristine_faults():
    """Unconfigured lazy state: the next probe re-reads the env (so
    forked batch workers pick up a monkeypatched ``REPRO_FAULTS``)."""
    faults._plan = None
    faults._configured = False
    faults._counts.clear()


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
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
            "seed=7, stall_s=5, disk.torn_write=0.3, worker.crash=0.2"
        )
        assert plan.seed == 7
        assert plan.stall_seconds == 5.0
        assert plan.rate("disk.torn_write") == 0.3
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
            faults.FaultPlan.parse("disk.torn_write=1.5")
        with pytest.raises(ValueError, match="key=value"):
            faults.FaultPlan.parse("disk.torn_write")

    def test_deterministic_sequence(self):
        faults.configure("seed=3,disk.torn_write=0.5")
        seq1 = [faults.should_fire("disk.torn_write") for _ in range(64)]
        faults.configure("seed=3,disk.torn_write=0.5")
        seq2 = [faults.should_fire("disk.torn_write") for _ in range(64)]
        assert seq1 == seq2
        assert True in seq1 and False in seq1  # rate 0.5 mixes both
        faults.configure("seed=4,disk.torn_write=0.5")
        seq3 = [faults.should_fire("disk.torn_write") for _ in range(64)]
        assert seq3 != seq1  # seed matters

    def test_inactive_by_default(self):
        assert not faults.active()
        assert not faults.should_fire("disk.torn_write")
        faults.check("pass")  # no-op

    def test_check_raises_typed_error(self):
        faults.configure("seed=1,pass=1.0")
        with pytest.raises(FaultInjected) as ei:
            faults.check("pass", app="simple")
        assert isinstance(ei.value, ReproError)
        assert ei.value.context()["app"] == "simple"


class TestPipelineFaults:
    def test_pass_fault_becomes_typed_error(self):
        from repro.apps import build_app
        from repro.codegen.spmd import Scheme

        faults.configure("seed=1,pass=1.0")
        with pytest.raises(ReproError):
            CompileSession(cache=False).compile(
                build_app("simple", n=8), Scheme.BASE, 2
            )

    def test_foreign_exception_wrapped_with_context(self, monkeypatch):
        from repro.apps import build_app
        from repro.codegen.spmd import Scheme

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(passes, "decompose_program", boom)
        with pytest.raises(CompileError) as ei:
            CompileSession(cache=False).compile(
                build_app("simple", n=8), Scheme.COMP_DECOMP, 2
            )
        assert "decompose" in str(ei.value)
        assert ei.value.context()["app"] == "simple"


class TestDegradation:
    def test_broken_scheme_degrades_to_base(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("decomposition exploded")

        monkeypatch.setattr(passes, "decompose_program", boom)
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
        def boom(*args, **kwargs):
            raise RuntimeError("decomposition exploded")

        monkeypatch.setattr(passes, "decompose_program", boom)
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
            "--backoff", "0.01", "--store-dir", str(tmp_path),
            "--inject-faults", "seed=7,disk.enospc=0.5,disk.torn_write=0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "errors: 0" in out
        # The CLI cleared the injected plan after the batch.
        assert not faults.active()
