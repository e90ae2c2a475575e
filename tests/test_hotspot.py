"""The stack sampler behind ``perf record --flame/--stacks``:
lifecycle, stack attribution, determinism, and the strict disabled
path.

The overhead guard mirrors ``tests/test_obs.py``: while no profiler is
started, the repro hot path must run within 5% of a floor measured the
same way — the profiler installs nothing (``sys.getprofile()`` stays
untouched), so the only honest difference is timer noise.
"""

import sys

import pytest

from repro import obs
from repro.apps import simple
from repro.compiler import Scheme, compile_all
from repro.machine import scaled_dash
from repro.machine.simulate import simulate
from repro.obs.hotspot import EXTERNAL, HotspotProfiler, HotspotReport
from tests.conftest import best_of_alternating


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
    """Small compile+simulate run; fresh program defeats memoization."""
    prog = simple.build(n=12, time_steps=2)
    compiled = compile_all(prog, nprocs=4)
    machine = scaled_dash(4, scale=32, word_bytes=8)
    return simulate(compiled.by_scheme(Scheme.COMP_DECOMP_DATA), machine)


class TestLifecycle:
    def test_start_stop_restores_hook(self):
        prof = HotspotProfiler()
        assert sys.getprofile() is None
        prof.start()
        assert sys.getprofile() is not None
        report = prof.stop()
        assert sys.getprofile() is None
        assert isinstance(report, HotspotReport)

    def test_nested_prev_hook_restored(self):
        marker = lambda *a: None
        sys.setprofile(marker)
        try:
            with HotspotProfiler():
                pass
            assert sys.getprofile() is marker
        finally:
            sys.setprofile(None)

    def test_double_start_and_stop_raise(self):
        prof = HotspotProfiler().start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()
        with pytest.raises(RuntimeError):
            prof.stop()

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            HotspotProfiler(interval=0)

    def test_profile_context_manager(self):
        with HotspotProfiler() as p:
            assert sys.getprofile() is not None
            _workload()
        assert sys.getprofile() is None
        assert p.report().samples > 0


class TestAttribution:
    def test_repro_functions_attributed(self):
        with HotspotProfiler() as p:
            _workload()
        rep = p.report()
        frames = {f for stack in rep.stacks for f in stack.split(";")}
        assert any(f.startswith("machine/") for f in frames)
        assert any(f.startswith("pipeline/") or f.startswith("analysis/")
                   for f in frames)
        # Stacks account for the sampled wall time: every sample lands
        # in exactly one stack, EXTERNAL included.
        assert sum(rep.stacks.values()) <= rep.wall_s * 1.5
        # Outermost frame first: simulate() encloses the trace build.
        nested = [s.split(";") for s in rep.stacks
                  if "machine/simulate.py:simulate;" in s
                  and "machine/trace.py:" in s]
        assert nested
        for frames in nested:
            first_trace = min(i for i, f in enumerate(frames)
                              if f.startswith("machine/trace.py:"))
            assert frames.index("machine/simulate.py:simulate") < first_trace

    def test_external_bucket(self):
        def spin():
            return sum(range(50))

        with HotspotProfiler() as p:
            # Pure non-repro work: every sample must fall to EXTERNAL.
            for _ in range(5000):
                spin()
        rep = p.report()
        assert rep.samples > 0
        non_ext = {k: v for k, v in rep.stacks.items() if k != EXTERNAL}
        assert sum(non_ext.values()) <= rep.wall_s * 0.5
        assert rep.collapsed()[0].startswith(EXTERNAL + " ")


class TestDeterminism:
    def test_fake_clock_exact_totals(self):
        """With an injectable clock the recorded durations are exact:
        sampling positions are tick-counted, so the same event stream
        yields the same sample count and byte-identical stacks."""

        def run_once():
            t = [0.0]

            def clock():
                t[0] += 1.0
                return t[0]

            prof = HotspotProfiler(interval=3, clock=clock)
            prof.start()
            try:
                simple.build(n=8, time_steps=2)
            finally:
                rep = prof.stop()
            return rep

        a, b = run_once(), run_once()
        assert a.samples == b.samples > 0
        assert a.stacks == b.stacks
        assert a.collapsed() == b.collapsed()
        # Each sampled dt is exactly 1.0 fake seconds.
        assert sum(a.stacks.values()) == float(a.samples)

    def test_tick_counted_sampling_rate(self):
        with HotspotProfiler(interval=11) as p:
            _workload()
        rep = p.report()
        assert rep.interval == 11
        # samples == floor(ticks / interval) exactly (pure tick count).
        assert rep.samples == rep.ticks // 11


class TestOverhead:
    def test_disabled_path_under_5_percent(self):
        """With no profiler started the hot path pays nothing: the
        module installs no sys hooks, so the comparison is plain run
        vs. plain run with the module imported and a profiler object
        constructed (but never started)."""
        _workload()  # warm imports and numpy caches

        HotspotProfiler()  # constructed, never started
        assert sys.getprofile() is None
        with_module, floor = best_of_alternating(_workload, _workload)
        assert with_module <= floor * 1.05 + 0.005, (
            f"disabled profiler overhead too high: {with_module:.4f}s "
            f"vs floor {floor:.4f}s"
        )
