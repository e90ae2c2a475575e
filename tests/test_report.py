"""Tests for result formatting."""

import json

from repro.report import (
    Table1Row,
    classify_critical,
    format_profile_table,
    format_speedup_table,
    format_table1,
    save_experiment,
)

CURVES = {
    "base": [(1, 1.0), (4, 3.5), (32, 10.0)],
    "comp decomp + data transform": [(1, 1.0), (4, 3.9), (32, 25.0)],
}


class TestFormatting:
    def test_fixed_width(self):
        text = format_speedup_table(CURVES, title="demo")
        assert "demo" in text
        assert "base" in text
        assert "25.00" in text


class TestSaveExperiment:
    def test_writes_text_only_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_experiment("demo", "hello")
        assert open(path).read() == "hello\n"
        assert not (tmp_path / "demo.json").exists()

    def test_writes_json_sibling_with_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        save_experiment(
            "demo", "hello",
            metrics={"title": "t", "series": {
                "base": [[1, 1.0], [4, 3.5]],
            }},
        )
        data = json.loads((tmp_path / "demo.json").read_text())
        assert data["name"] == "demo"
        assert data["series"]["base"] == [[1, 1.0], [4, 3.5]]


class TestProfileTable:
    def test_renders_phase_and_array_detail(self):
        from repro.apps import simple
        from repro.compiler import Scheme, compile_program
        from repro.machine import scaled_dash
        from repro.machine.simulate import simulate

        prog = simple.build(n=16)
        spmd = compile_program(prog, Scheme.COMP_DECOMP_DATA, 4)
        res = simulate(spmd, scaled_dash(4, scale=32, word_bytes=8),
                       detail=True)
        text = format_profile_table(res)
        assert "profile:" in text
        for nest in ("add", "relax"):
            assert nest in text
        for arr in ("A", "B", "C"):
            assert f"\n{arr} " in text
        assert "numa:" in text
        assert "conflict sets:" in text


class TestTable1:
    def test_classify_critical(self):
        comp, data = classify_critical(base=4.2, cd=5.0, cdd=14.3)
        assert comp and data
        comp, data = classify_critical(base=8.0, cd=22.9, cdd=22.9)
        assert comp and not data
        # stencil-shaped: cd loses to base but the combination wins big
        comp, data = classify_critical(base=15.6, cd=10.0, cdd=28.5)
        assert comp and data
        # nothing helps much
        comp, data = classify_critical(base=10.0, cd=10.2, cdd=10.5)
        assert not comp and not data

    def test_format(self):
        rows = [
            Table1Row("lu", 19.5, 33.5, True, True, ["A: (*, CYCLIC)"]),
            Table1Row("adi", 8.0, 22.9, True, False, ["X: (*, BLOCK)"]),
        ]
        text = format_table1(rows)
        assert "lu" in text and "33.5" in text
        assert "(*, CYCLIC)" in text
        lines = text.splitlines()
        assert len(lines) == 4


class TestExplainTree:
    def test_empty_log_one_liner(self):
        from repro.obs.provenance import ProvenanceLog
        from repro.report import format_explain_tree

        text = format_explain_tree(ProvenanceLog(), title="x/opt/P4")
        assert text.splitlines()[-1] == "(no decisions recorded)"
        assert "x/opt/P4" in text

    def test_none_and_empty_list(self):
        from repro.report import format_explain_tree

        assert "(no decisions recorded)" in format_explain_tree(None)
        assert "(no decisions recorded)" in format_explain_tree([])

    def test_partial_record_dicts_fail_soft(self):
        from repro.report import format_explain_tree

        # Records missing most keys (e.g. hand-edited JSON) still render.
        text = format_explain_tree([{"stage": "layout"}, {}])
        assert "[layout]" in text
        assert "?" in text


class TestDiffTable:
    def test_identical_one_liner(self):
        from repro.obs.compare import RunDiff
        from repro.report import format_diff_table

        diff = RunDiff(n_compared=3)
        text = format_diff_table(diff)
        assert text.splitlines()[1:] == [
            "verdict: SAME (runs identical: 3 points compared)"]

    def test_no_overlap(self):
        from repro.obs.compare import diff_runs
        from repro.report import format_diff_table

        diff = diff_runs({"points": [{"app": "a", "scheme": "base",
                                      "nprocs": 1}]},
                         {"points": [{"app": "b", "scheme": "base",
                                      "nprocs": 1}]})
        text = format_diff_table(diff)
        assert "point a/base/P1: point in run A only" in text
        assert "point b/base/P1: point in run B only" in text
        assert "DIVERGED (2 diverging points; 0 points compared)" in text

    def test_diff_cli_bad_file_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = tmp_path / "nope.json"
        assert main(["diff", str(missing), str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diff: ")
        assert len(err.strip().splitlines()) == 1

    def test_diff_cli_wrong_schema_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        assert main(["diff", str(bad), str(bad)]) == 2
        assert "points" in capsys.readouterr().err


class TestStatusText:
    def _status(self, **over):
        base = {
            "run_id": "RUN_x", "state": "running", "pid": 4242,
            "pid_alive": True, "total": 6, "finished": 3,
            "progress": 0.5, "ok": 3, "errors": 0, "degraded": 0,
            "retried": 1, "store_hits": 1, "waves": 1, "resumes": 0,
            "ewma_latency": 0.02, "eta": 0.03, "cache_hit_rate": 0.25,
            "heartbeat_age": 0.4, "rss": 50_000_000,
            "in_flight": [{"i": 4, "label": "simple/comp/P4"}],
            "scheme_matrix": {"simple": {"base": [2, 2],
                                         "comp": [1, 2],
                                         "data": [0, 2]}},
            "torn_tail": False, "bad_lines": 0,
        }
        base.update(over)
        return base

    def test_running_snapshot(self):
        from repro.report import format_status_text

        text = format_status_text(self._status())
        assert "run RUN_x  state=running  pid 4242 (alive)" in text
        assert "3/6 50%" in text
        assert "#" * 15 + "." * 15 in text  # half-full bar
        assert "ewma 0.02s/pt" in text and "eta 0.03s" in text
        assert "cache hit rate 25.0%" in text
        assert "rss 50 MB" in text
        assert "in flight (1): simple/comp/P4" in text
        assert "1/2" in text and "0/2" in text  # the scheme matrix
        assert "journal damage" not in text

    def test_in_flight_overflow_and_damage(self):
        from repro.report import format_status_text

        many = [{"i": i, "label": f"p{i}"} for i in range(12)]
        text = format_status_text(self._status(
            in_flight=many, torn_tail=True, bad_lines=2))
        assert "in flight (12):" in text and "+4 more" in text
        assert "journal damage: torn_tail=True bad_lines=2" in text

    def test_minimal_dict_renders(self):
        from repro.report import format_status_text

        text = format_status_text({"state": "interrupted"})
        assert "state=interrupted" in text
        assert "pid ?" in text


class TestRunReportHtml:
    def _payload(self):
        return {
            "schema": 1,
            "run_id": "RUN_x",
            "status": {"run_id": "RUN_x", "state": "interrupted",
                       "total": 2, "finished": 1, "ok": 1, "errors": 0,
                       "degraded": 0, "retried": 0, "store_hits": 0,
                       "waves": 1, "resumes": 0, "eta": None,
                       "in_flight": [{"i": 1, "label": "simple/comp/P4"}]},
            "header": {"schema": 3, "created": "2026-01-01T00:00:00Z"},
            "timeline": [
                {"t": 0.0, "type": "wave", "wave": 1, "pending": 2},
                {"t": 0.01, "type": "start", "i": 0,
                 "label": "simple/base/P1"},
                {"t": 0.5, "type": "heartbeat", "finished": 0},
                {"t": 1.0, "type": "done", "i": 0, "ok": True},
            ],
            "points": [{"i": 0, "label": "simple/base/P1", "ok": True,
                        "elapsed": 0.5, "total_time": 12.0,
                        "store_hit": False, "attempts": 1,
                        "degraded": False}],
            "degraded": [],
            "failures": [{"i": 1, "label": "simple/comp/P4",
                          "error": "<boom> & crash"}],
            "decisions": {"layout: A → (*, BLOCK)": 2},
            "series": {"samples": 3, "bad_lines": 0, "torn_tail": False,
                       "curves": {"finished": [[0.0, 0.0], [1.0, 1.0]],
                                  "rss_mb": [[0.0, 40.0], [1.0, 41.0]]}},
        }

    def test_report_is_self_contained_and_escaped(self):
        from repro.report import run_report_html

        html = run_report_html(self._payload())
        assert html.lstrip().lower().startswith("<!doctype html")
        assert "RUN_x" in html and "interrupted" in html
        assert "background:#fdd" in html  # interrupted state is tinted
        assert "in flight (1): simple/comp/P4" in html
        assert "<svg" in html and "finished" in html and "rss_mb" in html
        # Raw error text is escaped, never injected as markup.
        assert "<boom>" not in html
        assert "&lt;boom&gt; &amp; crash" in html
        # Heartbeats stay out of the rendered timeline.
        assert "heartbeat" not in html.split("timeline", 1)[1]
        body = html.split("</title>", 1)[1].lower()
        for needle in ("http://", "https://", "<script src",
                       "<link rel", "<img"):
            assert needle not in body

    def test_report_without_series_mentions_heartbeat_flag(self):
        from repro.report import run_report_html

        payload = self._payload()
        payload["series"] = {"samples": 0, "bad_lines": 0,
                             "torn_tail": False, "curves": {}}
        html = run_report_html(payload)
        assert "no time-series samples" in html
