"""Tests for the whole-program simulation driver."""

import numpy as np
import pytest

from repro.apps import simple
from repro.codegen.spmd import Scheme
from repro.compiler import compile_program
from repro.machine import scaled_dash
from repro.machine.simulate import simulate, speedup_curve
from repro.machine.trace import program_traces


@pytest.fixture(scope="module")
def prog():
    return simple.build(n=32, time_steps=3)


def machine(p):
    return scaled_dash(p, scale=32, word_bytes=4)


class TestSimulate:
    def test_uniprocessor_schemes_agree(self, prog):
        """At P=1 all three configurations execute identical access
        streams, so their times must match exactly."""
        times = []
        for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                       Scheme.COMP_DECOMP_DATA):
            spmd = compile_program(prog, scheme, 1)
            times.append(simulate(spmd, machine(1)).total_time)
        assert times[0] == pytest.approx(times[1])
        assert times[0] == pytest.approx(times[2])

    def test_positive_time_and_counts(self, prog):
        spmd = compile_program(prog, Scheme.BASE, 4)
        res = simulate(spmd, machine(4))
        assert res.total_time > 0
        # One round's accesses, though the steady round is classified
        # too (the program has more than one time step).
        one_round = sum(t.n_accesses for t in program_traces(spmd)[1])
        assert one_round > 0
        assert res.n_accesses == one_round
        assert res.n_accesses == sum(
            pc.misses["accesses"] for pc in res.phase_costs)
        assert set(res.miss_breakdown) == {
            "cold", "replacement", "true_sharing", "false_sharing",
            "upgrade", "l2_hits", "remote", "local_miss",
        }

    def test_rounds(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 2), machine(2))
        cold_round, steady_round = res.round_times
        assert cold_round >= steady_round  # warm caches help
        expected = cold_round + (prog.time_steps - 1) * steady_round
        assert res.total_time == pytest.approx(expected)

    def test_single_time_step_single_round(self):
        p1 = simple.build(n=16, time_steps=1)
        res = simulate(compile_program(p1, Scheme.BASE, 2), machine(2))
        assert res.round_times[0] == pytest.approx(res.round_times[1])

    def test_no_remote_misses_on_one_cluster(self, prog):
        """With <= cluster_size processors everything is one cluster, so
        no miss can be remote."""
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert res.miss_breakdown["remote"] == 0

    def test_phase_costs_cover_nests(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert [pc.nest_name for pc in res.phase_costs] == ["add", "relax"]

    def test_summary_text(self, prog):
        res = simulate(compile_program(prog, Scheme.BASE, 4), machine(4))
        assert "base" in res.summary()
        assert "P=4" in res.summary()


class TestSpeedupCurve:
    def test_baseline_normalized(self, prog):
        curves = speedup_curve(prog, [Scheme.BASE], machine, [1, 2])
        series = curves[Scheme.BASE.value]
        assert series[0] == (1, pytest.approx(1.0))
        assert series[1][1] > 1.0

    def test_all_schemes_present(self, prog):
        curves = speedup_curve(
            prog,
            [Scheme.BASE, Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA],
            machine,
            [1, 4],
        )
        assert len(curves) == 3
        for series in curves.values():
            assert [p for p, _ in series] == [1, 4]

    def test_zero_time_scheme_falls_back_to_neutral_speedup(self):
        """A scheme whose simulated time is zero (empty access trace)
        must report the neutral speedup 1.0, not 0.0, and log an
        observability event."""
        from repro import obs
        from repro.ir.program import Program

        empty = Program(name="empty", arrays={}, nests=[], params={},
                        time_steps=1)
        obs.enable(reset=True)
        try:
            curves = speedup_curve(empty, [Scheme.BASE], machine, [1, 2])
            assert curves[Scheme.BASE.value] == [(1, 1.0), (2, 1.0)]
            assert any(e.name == "sim.zero_time"
                       for e in obs.collector().events)
        finally:
            obs.disable()
            obs.reset()

    def test_figure1_ordering_at_scale(self, prog):
        """The Figure-1 qualitative result: with data transformation the
        program is at least as fast as comp-decomp alone at high P."""
        curves = speedup_curve(
            prog,
            [Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA],
            machine,
            [8],
        )
        cd = curves[Scheme.COMP_DECOMP.value][0][1]
        cdd = curves[Scheme.COMP_DECOMP_DATA.value][0][1]
        assert cdd >= cd * 0.95
