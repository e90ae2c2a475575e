"""Tests for the whole-program simulation driver."""

import ctypes
import os
import resource

import numpy as np
import pytest

from repro.apps import build_app, simple
from repro.codegen.spmd import Scheme
from repro.compiler import compile_program
from repro.machine import scaled_dash
from repro.machine.simulate import CHUNK_FLOOR, simulate, speedup_curve
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
        must report the neutral speedup 1.0, not 0.0 or a division by
        zero."""
        from repro.ir.program import Program

        empty = Program(name="empty", arrays={}, nests=[], params={},
                        time_steps=1)
        curves = speedup_curve(empty, [Scheme.BASE], machine, [1, 2])
        assert curves[Scheme.BASE.value] == [(1, 1.0), (2, 1.0)]

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


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the C library is not glibc")
class TestScratchStaysMapped:
    """Importing ``repro.machine`` pins glibc's mmap and trim
    thresholds, so the scratch memory one ``simulate`` call frees stays
    in the heap and an identical second call faults in no fresh pages.
    Left to glibc's dynamic thresholds, each call grows the heap into
    fresh pages and trims it on return (over 10,000 minor faults per
    call at these sizes)."""

    @pytest.mark.parametrize("n, nprocs, kwargs, chunked", [
        (48, 16, {"detail": True, "locality": True}, False),
        (96, 32, {}, True),
    ], ids=["lu48-detail-locality", "lu96-chunked"])
    def test_second_call_faults_no_scratch(self, n, nprocs, kwargs,
                                           chunked):
        spmd = compile_program(build_app("lu", n=n), Scheme.COMP_DECOMP,
                               nprocs)
        m = scaled_dash(nprocs, scale=16, word_bytes=8)
        first = simulate(spmd, m, **kwargs)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        second = simulate(spmd, m, **kwargs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert (first.n_accesses > CHUNK_FLOOR) == chunked
        assert second.total_time == first.total_time
        assert faults < 1000, f"{faults} minor page faults"


class TestMallocThresholds:
    @pytest.mark.skipif(not _glibc(), reason="the C library is not glibc")
    def test_glibc_takes_both(self):
        from repro.machine import pin_malloc_thresholds

        assert pin_malloc_thresholds() is True

    def test_other_c_library_does_nothing(self, monkeypatch):
        """Where ``CS_GNU_LIBC_VERSION`` is unknown (musl, macOS) the
        call returns before it loads any C symbol."""
        from repro.machine import pin_malloc_thresholds

        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        def no_dlopen(*args, **kwargs):
            raise AssertionError("loaded the C library")

        monkeypatch.setattr(os, "confstr", unknown)
        monkeypatch.setattr(ctypes, "CDLL", no_dlopen)
        assert pin_malloc_thresholds() is False
