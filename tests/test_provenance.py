"""Decision provenance: capture, cache replay, explain, and run diffing."""

import json

import pytest

from repro import pipeline
from repro.__main__ import main
from repro.apps import build_app
from repro.codegen.spmd import parse_scheme
from repro.obs import provenance
from repro.obs.bench import run_bench
from repro.obs.compare import diff_runs
from repro.pipeline import CompileSession


OPT = parse_scheme("opt")


class TestCollection:
    def test_opt_point_spans_all_stages(self):
        prog = build_app("tomcatv", n=32)
        session = CompileSession()
        _, log = provenance.collect_point(session, prog, OPT, 8)
        stages = set(log.stages())
        assert {"unimodular", "decomposition", "folding", "layout",
                "addropt"} <= stages
        sites = {r.site for r in log}
        assert len(sites) >= 5
        for r in log:
            assert r.chosen
            assert r.reason
            assert r.alternatives

    def test_record_noop_without_capture(self):
        assert not provenance.active()
        assert provenance.record("x", stage="s", subject="a",
                                 chosen="c") is None
        with provenance.capture() as recs:
            assert provenance.active()
            provenance.record("x", stage="s", subject="a", chosen="c",
                              alternatives=["c", "d"], reason="r", k=1)
        assert len(recs) == 1
        assert recs[0].as_dict()["inputs"] == {"k": 1}

    def test_scheme_alias_opt(self):
        from repro.compiler import Scheme

        assert parse_scheme("OPT") is Scheme.COMP_DECOMP_DATA


class TestCacheReplay:
    def _log_json(self, session, prog):
        _, log = provenance.collect_point(session, prog, OPT, 8)
        return log.to_json(), session.stats()

    def test_warm_session_replays_identical_log(self):
        """A warm session must replay the decision log bit-identically
        without re-running any stage."""
        session = CompileSession()
        cold_json, cold_counts = self._log_json(
            session, build_app("tomcatv", n=32))
        assert sum(cold_counts["runs"].values()) > 0
        assert sum(cold_counts["hits"].values()) == 0

        warm_json, warm_counts = self._log_json(
            session, build_app("tomcatv", n=32))
        assert warm_json == cold_json
        assert warm_counts["runs"] == cold_counts["runs"]
        assert sum(warm_counts["hits"].values()) > 0

    def test_capture_state_does_not_change_cache_keys(self):
        """Whether anyone is listening must not perturb fingerprints:
        a compile inside an outer capture hits the artifacts written by
        one that ran with no capture at all."""
        session = CompileSession()
        session.compile(build_app("simple", n=12), OPT, 4)
        first = session.stats()
        assert sum(first["hits"].values()) == 0
        first_log = session.last_provenance

        with provenance.capture():
            session.compile(build_app("simple", n=12), OPT, 4)
        counts = session.stats()
        assert counts["runs"] == first["runs"]
        assert sum(counts["hits"].values()) > 0
        assert len(session.last_provenance) == len(first_log)


class TestDiff:
    def _snap(self, **kw):
        return run_bench(apps=["simple"], schemes=[OPT], procs=[4],
                         n=12, **kw)

    def test_identical_runs(self):
        snap = self._snap()
        assert snap["points"][0]["provenance"]
        diff = diff_runs(snap, snap)
        assert diff.rows == []
        assert not diff.diverged
        assert diff.n_compared == 1

    def test_forced_layout_change_is_attributed(self, monkeypatch,
                                                tmp_path, capsys):
        """Two runs differing only in one forced layout decision: the
        diff must blame that decision and the CLI must exit nonzero."""
        snap_a = self._snap()

        import repro.codegen.spmd as spmdmod
        from repro.datatrans.transform import identity_transform

        def forced(decl, *args, **kwargs):
            provenance.record(
                "datatrans.layout", stage="layout", subject=decl.name,
                chosen="identity",
                alternatives=["identity", "strip-mine+permute"],
                reason="forced identity (test)",
            )
            return identity_transform(decl)

        monkeypatch.setattr(spmdmod, "derive_layout", forced)
        snap_b = self._snap()
        monkeypatch.undo()

        diff = diff_runs(snap_a, snap_b)
        assert diff.diverged
        # The diverging point's rows end with its first diverging
        # decision: run B's record in ``b``, run A's in ``a``.
        culprit = diff.rows[-1]
        assert culprit.status == "culprit"
        assert culprit.b["stage"] == "layout"
        assert culprit.b["chosen"] == "identity"
        assert culprit.a["chosen"] == "strip-mine+permute"

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(snap_a))
        b.write_text(json.dumps(snap_b))
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "culprit" in out
        assert "datatrans.layout" in out
        assert "DIVERGED" in out

    def test_diff_cli_identical_exits_zero(self, tmp_path, capsys):
        snap = self._snap()
        a = tmp_path / "a.json"
        a.write_text(json.dumps(snap))
        assert main(["diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_cli_json(self, tmp_path, capsys):
        snap = self._snap()
        a = tmp_path / "a.json"
        a.write_text(json.dumps(snap))
        assert main(["diff", str(a), str(a), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diverged"] is False and payload["rows"] == []

    def test_missing_provenance_fails_soft(self):
        """Pre-provenance snapshots (e.g. the committed baseline) diff
        without attribution rather than crashing."""
        snap = self._snap()
        legacy = json.loads(json.dumps(snap))
        for p in legacy["points"]:
            p.pop("provenance", None)
            p["sim"]["total_time"] += 1.0
        diff = diff_runs(legacy, snap)
        assert diff.diverged
        last = diff.rows[-1]
        assert last.status == "unattributed"
        assert last.note == ("no provenance recorded in run A; cannot "
                             "attribute")

    def test_machine_fp_recorded_in_bench_points(self):
        snap = self._snap()
        fp = snap["points"][0]["machine_fp"]
        assert len(fp) == 64
        # Not inside "sim": the exact-match gate must never see it.
        assert "machine_fp" not in snap["points"][0]["sim"]

    def test_machine_config_change_is_attributed(self):
        """When the two runs disagree on the machine fingerprint, the
        divergence is blamed on the machine config, not a compiler
        decision."""
        snap_a = self._snap()
        snap_b = json.loads(json.dumps(snap_a))
        for p in snap_b["points"]:
            p["machine_fp"] = "f" * 64
            p["sim"]["total_time"] *= 2.0
        diff = diff_runs(snap_a, snap_b)
        assert diff.diverged
        last = diff.rows[-1]
        assert last.status == "unattributed"
        assert "machine fingerprint differs" in last.note
        assert "machine-config change" in last.note

    def test_wall_only_delta_is_noise(self):
        # Wall leaves (an older snapshot's "wall" block, a batch row's
        # elapsed) differ on every run and never gate; under the 10 ms
        # floor they are not even listed.
        snap = self._snap()
        for p in snap["points"]:
            p["wall"] = {"min": 0.002, "samples": [0.002, 0.003]}
        jittered = json.loads(json.dumps(snap))
        for p in jittered["points"]:
            # Scalars and the list of samples alike.
            p["wall"] = {
                k: (v * 1.5 if isinstance(v, (int, float))
                    else [x * 1.5 for x in v])
                for k, v in p["wall"].items()
            }
        diff = diff_runs(snap, jittered)
        assert diff.rows == []
        for p in jittered["points"]:
            p["wall"]["min"] += 1.0
        diff = diff_runs(snap, jittered)
        assert not diff.diverged  # wall deltas never gate
        assert [(r.metric, r.status) for r in diff.rows] == [
            ("wall.min", "regressed")]


class TestExplainCli:
    def test_explain_text(self, capsys):
        assert main(["explain", "tomcatv", "--scheme", "OPT",
                     "--procs", "8"]) == 0
        out = capsys.readouterr().out
        for stage in ("[unimodular]", "[decomposition]", "[folding]",
                      "[layout]", "[addropt]"):
            assert stage in out
        assert "alternatives:" in out

    def test_explain_json(self, capsys):
        assert main(["explain", "simple", "--scheme", "opt",
                     "--procs", "4", "--n", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "simple"
        assert payload["n_decisions"] == len(payload["decisions"])
        assert payload["n_decisions"] > 0
        assert set(payload["stages"]) >= {"unimodular", "layout"}

    def test_explain_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["explain", "nosuchapp"])


class TestTraceDeterminism:
    def test_tied_timestamps_sort_by_name(self):
        """Events sharing a timestamp appear name-sorted, so the trace
        is byte-stable regardless of dict insertion order."""
        from repro.obs.core import Collector
        from repro.obs.export import to_chrome_trace

        def trace(counter_order):
            c = Collector()
            c.t0 = 0.0
            sp = c.span("pass.layout", cat="pipeline")
            sp.start, sp.end = 0.0, 1.0
            for k in counter_order:
                sp.add(k)
            c.spans.append(sp)
            return to_chrome_trace(c)

        a = trace(["b", "a", "c"])
        b = trace(["c", "b", "a"])
        assert json.dumps(a) == json.dumps(b)
        names = [e["name"] for e in a["traceEvents"] if e["ph"] == "C"]
        assert names == sorted(names)
