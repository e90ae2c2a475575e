"""Flamegraph rendering (PR-10): the collapsed/folded stack format,
the self-contained SVG builder, and the profiler's stack capture.

The SVG contract worth pinning: well-formed XML, byte-deterministic
for a given input, and fully self-contained — no scripts, no external
fetches — so it can be committed as a CI artifact and opened from a
file:// URL on an air-gapped host.
"""

import sys
import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.obs.flame import flamegraph_svg, parse_collapsed
from repro.obs.hotspot import EXTERNAL, HotspotProfiler

STACKS = {
    "main;compile;layout": 0.30,
    "main;compile;decompose": 0.10,
    "main;simulate;trace": 0.55,
    "main": 0.05,
}


@pytest.fixture(autouse=True)
def _clean_state():
    from repro import pipeline

    obs.disable()
    obs.reset()
    pipeline.reset_session()
    assert sys.getprofile() is None
    yield
    assert sys.getprofile() is None, "profiler hook leaked"
    obs.disable()
    obs.reset()
    pipeline.reset_session()


def _workload():
    from repro.apps import simple
    from repro.compiler import Scheme, compile_all
    from repro.machine import scaled_dash
    from repro.machine.simulate import simulate

    prog = simple.build(n=12, time_steps=2)
    compiled = compile_all(prog, nprocs=4)
    machine = scaled_dash(4, scale=32, word_bytes=8)
    return simulate(compiled.by_scheme(Scheme.COMP_DECOMP_DATA), machine)


class TestParseCollapsed:
    def test_round_trip(self):
        lines = [f"{k} {v:.6f}" for k, v in sorted(STACKS.items())]
        assert parse_collapsed(lines) == pytest.approx(STACKS)

    def test_accumulates_duplicate_stacks(self):
        parsed = parse_collapsed(["a;b 1.0", "a;b 2.0", "a 0.5"])
        assert parsed == {"a;b": 3.0, "a": 0.5}

    def test_blank_lines_skipped(self):
        assert parse_collapsed(["", "a 1.0", "   "]) == {"a": 1.0}

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_collapsed(["no-value-here"])
        with pytest.raises(ValueError, match="malformed"):
            parse_collapsed(["a not-a-number"])


class TestFlamegraphSVG:
    def test_well_formed_xml_with_frames(self):
        svg = flamegraph_svg(STACKS, title="test")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rects = root.iter("{http://www.w3.org/2000/svg}rect")
        assert sum(1 for _ in rects) >= len(STACKS)
        titles = [t.text for t in
                  root.iter("{http://www.w3.org/2000/svg}title")]
        assert any("simulate" in t for t in titles)
        assert any("test" in (t.text or "") for t in
                   root.iter("{http://www.w3.org/2000/svg}text"))

    def test_deterministic(self):
        assert flamegraph_svg(STACKS) == flamegraph_svg(dict(
            reversed(list(STACKS.items()))))

    def test_self_contained(self):
        svg = flamegraph_svg(STACKS)
        low = svg.lower()
        assert "<script" not in low
        assert "href" not in low
        # The only external reference is the SVG namespace itself.
        assert low.count("http") == low.count("http://www.w3.org/2000/svg")

    def test_accepts_folded_lines(self):
        lines = [f"{k} {v:.6f}" for k, v in STACKS.items()]
        assert flamegraph_svg(lines) == flamegraph_svg(STACKS)

    def test_empty_input_renders_placeholder(self):
        svg = flamegraph_svg({})
        ET.fromstring(svg)
        assert "(no samples)" in svg

    def test_min_frac_prunes_tiny_frames(self):
        stacks = dict(STACKS)
        stacks["main;compile;epsilon"] = 1e-9
        svg = flamegraph_svg(stacks, min_frac=0.01)
        assert "epsilon" not in svg
        ET.fromstring(svg)

    def test_total_in_header(self):
        svg = flamegraph_svg(STACKS, title="hdr")
        assert f"{sum(STACKS.values()):.4g}s" in svg


class TestProfilerStacks:
    def test_collect_stacks_capture(self):
        with HotspotProfiler() as p:
            _workload()
        rep = p.report()
        assert rep.stacks
        # Every sample lands in exactly one folded stack.
        assert sum(rep.stacks.values()) <= rep.wall_s * 1.5
        non_ext = [s for s in rep.stacks if s != EXTERNAL]
        assert any(";" in s for s in non_ext)
        assert parse_collapsed(rep.collapsed()) == pytest.approx(
            rep.stacks, abs=1e-6)

    def test_collapsed_lines_feed_flamegraph(self):
        with HotspotProfiler() as p:
            _workload()
        lines = p.report().collapsed()
        assert lines == sorted(lines)
        svg = flamegraph_svg(lines, title="profiled")
        ET.fromstring(svg)
