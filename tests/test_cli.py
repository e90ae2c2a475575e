"""Tests for the command-line interface."""

import contextlib
import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("lu", "vpenta", "tomcatv"):
            assert name in out

    def test_decompose(self, capsys):
        assert main(["decompose", "lu", "--n", "12", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "(*, CYCLIC)" in out
        assert "pipelined" in out

    def test_decompose_verbose(self, capsys):
        assert main([
            "decompose", "simple", "--n", "12", "--procs", "4", "--verbose"
        ]) == 0
        out = capsys.readouterr().out
        assert "C[" in out

    def test_emit(self, capsys):
        assert main([
            "emit", "simple", "--n", "8", "--procs", "2", "--scheme", "data"
        ]) == 0
        out = capsys.readouterr().out
        assert "spmd_main" in out

    def test_run(self, capsys):
        assert main([
            "run", "simple", "--n", "16", "--procs-list", "1,4",
            "--scale", "32", "--scheme", "base",
        ]) == 0
        out = capsys.readouterr().out
        assert "base" in out
        assert "1.00" in out

    def test_run_jobs_matches_serial(self, capsys):
        args = ["run", "simple", "--n", "8", "--procs-list", "1,2,4",
                "--scale", "32"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert "comp decomp + data transform" in serial
        assert main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_run_jobs_failed_scheme_fails_the_run(self, monkeypatch,
                                                  capsys):
        """A scheme that fails to compile fails a parallel run as it
        fails a serial one; its row must not show BASE's times."""
        from repro.errors import CompileError
        from repro.pipeline import passes

        def boom(*args, **kwargs):
            raise RuntimeError("decomposition exploded")

        # The pool forks its workers, so they see the patch.
        monkeypatch.setattr(passes, "decompose_program", boom)
        args = ["run", "simple", "--n", "8", "--procs-list", "1,2",
                "--scheme", "comp", "--scale", "32"]
        with pytest.raises(CompileError, match="decomposition exploded"):
            main(args + ["--jobs", "1"])
        with pytest.raises(SystemExit, match="decomposition exploded"):
            main(args + ["--jobs", "2"])
        assert "comp decomp" not in capsys.readouterr().out

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["decompose", "nosuchapp"])


class TestProfileErrors:
    def test_bad_app(self):
        with pytest.raises(SystemExit):
            main(["profile", "nosuchapp", "--n", "8"])

    def test_bad_scheme_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["profile", "simple", "--scheme", "bogus"])

    def test_json_to_nonexistent_dir(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["profile", "simple", "--n", "8", "--procs", "2",
                  "--json", str(missing)])

    def test_trace_output_to_nonexistent_dir(self, tmp_path):
        missing = tmp_path / "absent" / "trace.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(["profile", "simple", "--n", "8", "--procs", "2",
                  "-o", str(missing)])

    def test_json_dash_to_stdout(self, capsys):
        assert main(["profile", "simple", "--n", "8", "--procs", "2",
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index('{\n  "arrays"')
        payload = json.loads(out[start:out.rindex("}") + 1])
        assert payload["scheme"]
        assert payload["locality"]["reuse"]


class TestGridArgsErrors:
    """verify, batch and bench read --apps/--schemes through one
    validator: unknown names and empty lists are one-line errors."""

    _COMMANDS = (["verify"], ["bench"])

    def test_bad_app(self):
        for cmd in self._COMMANDS:
            with pytest.raises(SystemExit, match="unknown app"):
                main([*cmd, "--apps", "nosuchapp"])

    def test_bad_scheme(self):
        for cmd in self._COMMANDS:
            with pytest.raises(SystemExit, match="unknown scheme"):
                main([*cmd, "--apps", "simple", "--schemes", "bogus"])

    def test_empty_apps(self):
        for cmd in self._COMMANDS:
            with pytest.raises(SystemExit, match="no apps"):
                main([*cmd, "--apps", ","])

    def test_apps_all_expands_to_every_app(self):
        import argparse

        from repro.__main__ import _grid_args
        from repro.apps import ALL_APPS
        from repro.compiler import Scheme

        apps, schemes = _grid_args(
            argparse.Namespace(apps="all", schemes="base,comp"))
        assert apps == sorted(ALL_APPS)
        assert schemes == [Scheme.BASE, Scheme.COMP_DECOMP]


class TestBatchJson:
    _FAST = ["batch", "--apps", "simple", "--schemes", "base",
             "--procs-list", "1", "--n", "8"]

    def test_json_to_nonexistent_dir(self, tmp_path):
        missing = tmp_path / "no" / "dir" / "batch.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main([*self._FAST, "--json", str(missing)])

    def test_json_dash_to_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([*self._FAST, "--json", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("{\n")
        payload = json.loads(out[start:out.rindex("}") + 1])
        assert payload["summary"]["points"] == 1
        assert payload["results"][0]["locality"]
        assert not (tmp_path / "-").exists()


class TestIncrementalCli:
    _GRID = ["--apps", "simple", "--schemes", "base,comp",
             "--procs-list", "1,2", "--n", "8"]

    def test_batch_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["batch", *self._GRID, "--incremental",
                     "--store-dir", store,
                     "--expect-incremental", "4"]) == 0
        out = capsys.readouterr().out
        assert "result store: 0 served, 4 executed" in out

        assert main(["batch", *self._GRID, "--incremental",
                     "--store-dir", store,
                     "--expect-incremental", "0"]) == 0
        out = capsys.readouterr().out
        assert "result store: 4 served, 0 executed" in out
        assert "ok (store)" in out

    def test_expect_incremental_mismatch_fails(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        rc = main(["batch", *self._GRID, "--incremental",
                   "--store-dir", store, "--expect-incremental", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--expect-incremental 0" in err

    def test_expect_incremental_implies_incremental(self, capsys,
                                                    tmp_path):
        # --expect-incremental alone turns the store lookup on.
        store = str(tmp_path / "store")
        main(["batch", *self._GRID, "--store-dir", store])
        assert main(["batch", *self._GRID, "--store-dir", store,
                     "--expect-incremental", "0"]) == 0

    def test_batch_json_reports_store_stats(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        out_json = tmp_path / "batch.json"
        assert main(["batch", *self._GRID, "--incremental",
                     "--store-dir", store,
                     "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["store"]["stores"] == 4
        assert payload["summary"]["executed"] == 4
        assert payload["summary"]["store_hits"] == 0

    def test_batch_json_counts_store_quarantine_evictions(
            self, capsys, tmp_path, monkeypatch):
        from repro.pipeline import store as store_mod

        store = str(tmp_path / "store")
        out_json = tmp_path / "batch.json"
        # --json keys points with locality, so both runs pass it.
        args = ["batch", *self._GRID, "--incremental",
                "--store-dir", store, "--json", str(out_json)]
        assert main(args) == 0
        for path in sorted(store_mod.ResultStore(store)._dir
                           .glob("??/*.json"))[:3]:
            path.write_text("{broken")
        monkeypatch.setattr(store_mod, "QUARANTINE_KEEP", 1)
        assert main(args) == 0
        payload = json.loads(out_json.read_text())
        # Three corrupt entries quarantined into a one-slot quarantine.
        assert payload["store"]["quarantine_evicted"] == 2

    def test_resume_re_executes_failed_points(self, capsys, tmp_path):
        """The store keeps no failed result, so a resume re-executes
        the points that failed instead of serving the failures back."""
        store = str(tmp_path / "store")
        assert main(["batch", "--apps", "simple", "--schemes", "comp",
                     "--procs-list", "1,2", "--n", "8",
                     "--store-dir", store, "--no-degrade",
                     "--inject-faults", "seed=1,pass=1.0"]) == 1
        assert capsys.readouterr().out.count("ERROR") == 2
        assert main(["batch", "--resume", "latest",
                     "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "points: 2  ok: 2  errors: 0" in out
        assert "result store: 0 served, 2 executed" in out

    def test_negative_expect_incremental_rejected(self):
        with pytest.raises(SystemExit) as ei:
            main(["batch", *self._GRID, "--expect-incremental", "-1"])
        assert ei.value.code == 2

    def test_verify_incremental(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = ["verify", "--apps", "simple", "--schemes", "base,comp",
                "--procs-list", "1,2", "--n", "6", "--incremental",
                "--store-dir", store]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "result store: 0 verdicts served, 4 verified live" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "result store: 4 verdicts served, 0 verified live" in out
        assert "ALL OK" in out


class TestBrokenPipe:
    """``repro <table-printing-cmd> | head`` must exit 141 (128 +
    SIGPIPE), not traceback: ``main()`` converts ``BrokenPipeError``
    for every subcommand.  Simulated in-process by pointing
    ``sys.stdout`` at a pipe whose read end is already closed, so the
    first line each command prints raises ``EPIPE``."""

    _GRID = ["--apps", "simple", "--schemes", "base",
             "--procs-list", "1", "--n", "8"]

    @contextlib.contextmanager
    def _broken_stdout(self):
        import os
        import sys

        r, w = os.pipe()
        os.close(r)
        saved = sys.stdout
        # Line-buffered: the first print hits the dead pipe at once.
        stream = os.fdopen(w, "w", buffering=1)
        sys.stdout = stream
        try:
            yield
        finally:
            sys.stdout = saved
            try:
                stream.close()
            except OSError:
                pass

    def test_explain_exits_141(self):
        with self._broken_stdout():
            rc = main(["explain", "simple", "--n", "8", "--procs", "2"])
        assert rc == 141

    def test_diff_exits_141(self, tmp_path):
        from repro.codegen.spmd import parse_scheme
        from repro.obs.perf import record_point

        run = record_point("simple", parse_scheme("base"), 1, n=8)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run))
        with self._broken_stdout():
            rc = main(["diff", str(path), str(path)])
        assert rc == 141

    def test_report_exits_141(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", *self._GRID, "--store-dir", store]) == 0
        capsys.readouterr()
        with self._broken_stdout():
            rc = main(["report", "--store-dir", store])
        assert rc == 141

    def test_perf_record_exits_141(self):
        import sys

        with self._broken_stdout():
            rc = main(["perf", "simple", "--scheme", "base",
                       "--procs", "1", "--n", "8"])
        assert rc == 141
        assert sys.getprofile() is None, "profiler hook leaked"
