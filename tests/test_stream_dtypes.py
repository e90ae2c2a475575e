"""The simulated stream is stored narrow (int32 addresses below 2 GiB,
int8 processor ids); every consumer must give the same answer on it as
on the same stream widened to int64."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import build_app
from repro.codegen.spmd import Scheme
from repro.compiler import compile_program
from repro.ir.builder import ProgramBuilder
from repro.machine import scaled_dash
from repro.machine.cache import CacheConfig
from repro.machine.coherence import classify_accesses
from repro.machine.locality import reuse_distances, set_pressure
from repro.machine.numa import NumaConfig, local_miss_mask
from repro.machine.simulate import simulate
from repro.machine.trace import program_traces
from repro.pipeline import CompileSession

FLAGS = ["hit", "cold", "replacement", "true_sharing", "false_sharing",
         "upgrade", "l2_hit"]
L1 = [CacheConfig(128, 16, assoc=a) for a in (1, 2, 4)]
L2 = [None, CacheConfig(256, 16), CacheConfig(256, 16, assoc=2),
      CacheConfig(512 * 1024, 16)]  # the last has 32,768 sets


def app_stream():
    """One round of a real merged stream, as traced."""
    prog = build_app("lu", n=8)
    spmd = CompileSession().compile(prog, Scheme.COMP_DECOMP, 4)
    _, traces = program_traces(spmd, 512)
    return tuple(np.concatenate([getattr(t, a) for t in traces])
                 for a in ("proc", "addr", "write"))


def high_stream():
    """Four processors over words within 64 B of 2^31 and near 0,
    several in shared lines, some written."""
    rng = np.random.default_rng(31)
    n = 600
    words = np.concatenate([2**31 - 64 + 8 * np.arange(8),
                            8 * np.arange(8)])
    addr = words[rng.integers(0, len(words), n)].astype(np.int32)
    proc = rng.integers(0, 4, n).astype(np.int8)
    write = rng.random(n) < 0.3
    return proc, addr, write


STREAMS = {"app": app_stream, "high": high_stream}


def widened(*arrays):
    return [a.astype(np.int64) for a in arrays]


@pytest.mark.parametrize("stream", sorted(STREAMS))
class TestNarrowEqualsWide:
    def test_trace_dtypes(self, stream):
        proc, addr, write = STREAMS[stream]()
        assert addr.dtype == np.int32 and proc.dtype == np.int8
        assert write.dtype == bool

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_classify(self, stream, rounds):
        proc, addr, write = STREAMS[stream]()
        wide = widened(proc, addr)
        for cfg in L1:
            for l2 in L2:
                narrow = classify_accesses(proc, addr, write, cfg, l2=l2,
                                           rounds=rounds)
                ref = classify_accesses(*wide, write, cfg, l2=l2,
                                        rounds=rounds)
                for f in FLAGS:
                    assert np.array_equal(getattr(narrow, f),
                                          getattr(ref, f)), (cfg, l2, f)

    def test_numa_and_locality(self, stream):
        proc, addr, write = STREAMS[stream]()
        wide_proc, wide_addr = widened(proc, addr)
        for numa in (NumaConfig(page_bytes=64), NumaConfig()):
            assert np.array_equal(local_miss_mask(addr, proc, numa),
                                  local_miss_mask(wide_addr, wide_proc, numa))
        assert np.array_equal(reuse_distances(proc, addr),
                              reuse_distances(wide_proc, wide_addr))
        for cfg in L1 + [CacheConfig(512 * 1024, 16)]:
            assert np.array_equal(set_pressure(proc, addr, cfg),
                                  set_pressure(wide_proc, wide_addr, cfg))


def test_simulate_detail_and_locality(monkeypatch):
    """The whole simulation with its detail and locality reports, on
    the traced stream and on the same stream widened to int64."""
    prog = build_app("adi", n=8)
    machine = scaled_dash(4, scale=64, word_bytes=8).with_l2()
    spmd = CompileSession().compile(prog, Scheme.COMP_DECOMP_DATA, 4)

    def run():
        res = simulate(spmd, machine, detail=True, locality=True)
        costs = [(pc.nest_name, pc.time, pc.compute_max, pc.sync,
                  pc.per_proc_cycles.tolist(), pc.misses)
                 for pc in res.phase_costs]
        return (res.total_time, res.round_times, res.n_accesses,
                res.miss_breakdown, res.array_breakdown, res.numa,
                res.conflict_sets, res.locality, costs)

    narrow = run()
    traced = program_traces

    def wide_traces(spmd, page_bytes=4096):
        space, traces = traced(spmd, page_bytes)
        return space, [replace(t, addr=t.addr.astype(np.int64),
                               proc=t.proc.astype(np.int64))
                       for t in traces]

    monkeypatch.setattr(importlib.import_module("repro.machine.simulate"),
                        "program_traces", wide_traces)
    assert run() == narrow


def test_address_space_over_2gib_traces_int64():
    """A declared array past 2 GiB makes the trace keep int64 addresses,
    exact at the far end of the array."""
    big = 2**28 + 64  # elements of 8 bytes: just over 2 GiB
    pb = ProgramBuilder("big", params={})
    a = pb.array("A", (big,))
    b = pb.array("B", (4,))
    (i,) = pb.vars("I")
    pb.nest("far", [("I", big - 4, big - 1)],
            [pb.assign(a(i), [a(i), b(i - (big - 4))], None)])
    spmd = compile_program(pb.build(), Scheme.BASE, 2)
    space, traces = program_traces(spmd)
    assert space.total_bytes >= 2**31
    (t,) = traces
    assert t.addr.dtype == np.int64
    expected = []
    for k in range(4):
        elem = space.bases["A"] + 8 * (big - 4 + k)
        expected += [elem, space.bases["B"] + 8 * k, elem]
    assert t.addr.tolist() == expected
    assert max(expected) >= 2**31
