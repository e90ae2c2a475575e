"""Chunked streams: a round classified chunk by chunk, each chunk after
the :class:`CoherenceHistory` the earlier ones leave behind, must give
the flags of the round classified whole, access for access, and
``simulate`` walking a round in chunks must give the one-chunk result
field for field."""

import importlib

import numpy as np
import pytest

from repro.apps import ALL_APPS, build_app
from repro.codegen.spmd import Scheme
from repro.machine import scaled_dash
from repro.machine.cache import CacheConfig
from repro.machine.coherence import (
    CoherenceHistory,
    ExactCoherentSim,
    classify_accesses,
)
from repro.machine.numa import NumaConfig, local_miss_mask
from repro.machine.trace import outer_blocks, program_traces
from repro.pipeline import CompileSession

sim = importlib.import_module("repro.machine.simulate")

FLAGS = ["hit", "cold", "replacement", "true_sharing", "false_sharing",
         "upgrade", "l2_hit"]
SCHEMES = (Scheme.BASE, Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA)

# L1 assoc 1, 2 and 4, each with no L2, a direct-mapped and a 2-way L2
# (a 1 KB L1 and a 4 KB L2, both with 16-byte lines).
GEOMETRIES = [
    (CacheConfig(1024, 16, assoc=a), l2)
    for a in (1, 2, 4)
    for l2 in (None, CacheConfig(4096, 16), CacheConfig(4096, 16, assoc=2))
]


def stream(app, n, scheme, nprocs, session):
    """One round of a compiled app's merged stream, and the position
    where each outer-loop iteration (and each phase) starts."""
    prog = build_app(app, n=n)
    spmd = session.compile(prog, scheme, nprocs)
    _, traces = program_traces(spmd)
    cuts, at = [], 0
    for phase in spmd.phases:
        lead, sizes = outer_blocks(spmd, phase)
        cuts += [at, *(at + lead + np.cumsum(sizes)[:-1])]
        at += lead + int(sizes.sum())
    proc, addr, write = (np.concatenate([getattr(t, a) for t in traces])
                         for a in ("proc", "addr", "write"))
    word_bytes = min(d.element_size for d in prog.arrays.values())
    return proc, addr, write, cuts, word_bytes


def chunked(proc, addr, write, cuts, rounds, **kw):
    """``rounds`` back-to-back copies of the stream, each cut at
    ``cuts`` and classified chunk by chunk with one carried history."""
    history = CoherenceHistory()
    bounds = sorted(set(int(c) for c in cuts) | {0, len(addr)})
    parts = []
    for _ in range(rounds):
        for a, b in zip(bounds, bounds[1:]):
            parts.append(classify_accesses(proc[a:b], addr[a:b],
                                           write[a:b], history=history,
                                           **kw))
    return {f: np.concatenate([getattr(p, f) for p in parts])
            for f in FLAGS}


@pytest.mark.parametrize("app", sorted(ALL_APPS))
def test_chunked_flags_equal_one_chunk(app):
    """Every app at n = 4, 6, 8 under each scheme at P = 1, 3, 8, 32,
    cut at seeded random positions or at every outer iteration with the
    first accesses in 1-access chunks, in turn.  The geometry and the
    number of rounds rotate too, so that each app meets every (geometry,
    rounds) and every (geometry, cuts) pair; a later round is classified
    again after the history the earlier one left, against the one-chunk
    derived rounds."""
    session = CompileSession()
    rng = np.random.default_rng(sorted(ALL_APPS).index(app))
    i = 0
    for n in (4, 6, 8):
        for scheme in SCHEMES:
            for nprocs in (1, 3, 8, 32):
                proc, addr, write, outer, wb = stream(app, n, scheme,
                                                      nprocs, session)
                cfg, l2 = GEOMETRIES[i % len(GEOMETRIES)]
                rounds = 1 + (i // len(GEOMETRIES)) % 3
                i += 1
                kw = dict(cfg=cfg, word_bytes=wb, l2=l2)
                whole = classify_accesses(proc, addr, write, rounds=rounds,
                                          **kw)
                cuts = (rng.integers(0, len(addr), 5) if i % 2
                        else outer + list(range(12)))
                got = chunked(proc, addr, write, cuts, rounds, **kw)
                for f in FLAGS:
                    assert np.array_equal(got[f], getattr(whole, f)), (
                        n, scheme.value, nprocs, cfg, l2, rounds, f)


@pytest.mark.parametrize("app", sorted(ALL_APPS))
def test_chunked_flags_match_the_spec(app):
    """The direct-mapped geometries against ``ExactCoherentSim`` on the
    stream repeated for two rounds, cut at every outer iteration."""
    session = CompileSession()
    for scheme in SCHEMES:
        for nprocs in (3, 8):
            proc, addr, write, outer, wb = stream(app, 4, scheme, nprocs,
                                                  session)
            for l2 in (None, CacheConfig(4096, 16)):
                cfg = CacheConfig(1024, 16)
                got = chunked(proc, addr, write, outer, 2, cfg=cfg,
                              word_bytes=wb, l2=l2)
                exact = ExactCoherentSim(nprocs, cfg, word_bytes=wb,
                                         l2=l2).run(
                    *(np.tile(a, 2) for a in (proc, addr, write)))
                for f in FLAGS:
                    assert np.array_equal(got[f], getattr(exact, f)), (
                        scheme.value, nprocs, l2, f)


def test_history_classifies_one_round():
    one = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="one round"):
        classify_accesses(one, one, one.astype(bool), CacheConfig(1024, 16),
                          rounds=2, history=CoherenceHistory())


def test_history_keeps_every_key():
    # The prefix holds the last touch of every line and the last write
    # of every word, and fewer events than the stream.
    rng = np.random.default_rng(3)
    proc = rng.integers(0, 4, 500).astype(np.int8)
    addr = (rng.integers(0, 64, 500) * 8).astype(np.int32)
    write = rng.random(500) < 0.3
    history = CoherenceHistory()
    classify_accesses(proc, addr, write, CacheConfig(256, 16),
                      history=history)
    words = set(addr[write] // 8)
    assert set(history.addr[history.write] // 8) == words
    assert set(history.addr // 16) == set(addr // 16)
    assert len(history) < len(addr)


class TestCarriedHomes:
    def test_page_keeps_its_first_touch_home(self):
        cfg = NumaConfig(page_bytes=4096, cluster_size=4)
        homes = np.full(4, -1, dtype=np.int64)
        # Processor 0 (cluster 0) first touches page 1; processor 4
        # (cluster 1) misses on it in the next chunk, remotely.
        first = local_miss_mask(np.array([4096]), np.array([0]), cfg, homes)
        later = local_miss_mask(np.array([4100, 8192]), np.array([4, 4]),
                                cfg, homes)
        assert first.tolist() == [True]
        assert later.tolist() == [False, True]
        assert homes.tolist() == [-1, 0, 1, -1]

    def test_later_chunk_homes_fresh_pages(self):
        # The second chunk touches only pages no earlier chunk touched:
        # each takes the cluster of its own first toucher there.
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        homes = np.full(8, -1, dtype=np.int64)
        local_miss_mask(np.array([0, 70]), np.array([0, 3]), cfg, homes)
        later = local_miss_mask(np.array([200, 130, 200, 140]),
                                np.array([5, 2, 1, 4]), cfg, homes)
        assert later.tolist() == [True, True, False, False]
        assert homes.tolist() == [0, 1, 1, 2, -1, -1, -1, -1]

    def test_every_page_already_homed(self):
        # No access of the chunk can move a home: the table is left as
        # it was, and every access reads its carried home.
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        homes = np.array([3, 0, 1, -1], dtype=np.int64)
        got = local_miss_mask(np.array([0, 64, 130, 10, 70]),
                              np.array([7, 0, 1, 0, 3]), cfg, homes)
        assert got.tolist() == [True, True, False, False, False]
        assert homes.tolist() == [3, 0, 1, -1]

    def test_chunks_equal_the_whole_stream(self):
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        rng = np.random.default_rng(5)
        proc = rng.integers(0, 8, 300).astype(np.int8)
        addr = rng.integers(0, 1024, 300).astype(np.int32)
        homes = np.full(16, -1, dtype=np.int64)
        got = np.concatenate([
            local_miss_mask(addr[a:b], proc[a:b], cfg, homes)
            for a, b in ((0, 7), (7, 8), (8, 150), (150, 300))])
        assert np.array_equal(got, local_miss_mask(addr, proc, cfg))


def _fields(res):
    return (res.total_time, res.round_times,
            [(pc.nest_name, pc.time, pc.compute_max, pc.sync,
              pc.per_proc_cycles.tolist(), pc.misses)
             for pc in res.phase_costs],
            res.miss_breakdown, res.n_accesses, res.array_breakdown,
            res.numa, res.conflict_sets)


@pytest.mark.parametrize("app", sorted(ALL_APPS))
def test_chunked_simulate_equals_one_chunk(app, monkeypatch):
    """``simulate(detail=True)`` with a small chunk floor equals the
    one-chunk result, time-stepped programs (whose steady round is then
    traced and classified again) included: chunks of about four times
    the history, and chunks of one outer iteration."""
    prog = build_app(app, n=8)
    wb = min(d.element_size for d in prog.arrays.values())
    session = CompileSession()
    for scheme in SCHEMES:
        for nprocs, l2 in ((3, False), (8, True)):
            spmd = session.compile(prog, scheme, nprocs)
            machine = scaled_dash(nprocs, scale=64, word_bytes=wb)
            if l2:
                machine = machine.with_l2()
            want = _fields(sim.simulate(spmd, machine, detail=True))
            for floor, ratio in ((64, sim.HISTORY_RATIO), (1, 0)):
                chunks = []
                classify = sim.classify_accesses
                monkeypatch.setattr(sim, "CHUNK_FLOOR", floor)
                monkeypatch.setattr(sim, "HISTORY_RATIO", ratio)
                monkeypatch.setattr(sim, "classify_accesses", lambda *a, **k:
                                    chunks.append(1) or classify(*a, **k))
                got = _fields(sim.simulate(spmd, machine, detail=True))
                monkeypatch.undo()
                assert len(chunks) > 1, (scheme.value, nprocs, floor)
                assert got == want, (scheme.value, nprocs, floor)


class TestNextChunk:
    def _blocks(self, *phases):
        return [(lead, np.concatenate(([0], np.cumsum(sizes))))
                for lead, sizes in phases]

    def test_small_phases_packed_whole(self):
        blocks = self._blocks((0, [2, 2]), (1, [3]), (0, [4, 4]))
        assert sim._next_chunk(blocks, (0, 0), 8) == (
            [(0, 0, 2), (1, 0, 1)], (2, 0))

    def test_large_phase_cut_at_outer_iterations(self):
        blocks = self._blocks((0, [2]), (5, [3, 3, 3, 3]))
        pieces, at = sim._next_chunk(blocks, (0, 0), 12)
        assert (pieces, at) == ([(0, 0, 1), (1, 0, 1)], (1, 1))
        assert sim._next_chunk(blocks, at, 7) == ([(1, 1, 3)], (1, 3))
        assert sim._next_chunk(blocks, (1, 3), 7) == ([(1, 3, 4)], (2, 0))

    def test_oversized_iteration_is_a_chunk_of_its_own(self):
        blocks = self._blocks((0, [1, 50, 1]))
        assert sim._next_chunk(blocks, (0, 0), 10) == ([(0, 0, 1)], (0, 1))
        assert sim._next_chunk(blocks, (0, 1), 10) == ([(0, 1, 2)], (0, 2))
        assert sim._next_chunk(blocks, (0, 2), 10) == ([(0, 2, 3)], (1, 0))

    def test_loopless_phase_is_never_cut(self):
        blocks = self._blocks((0, [1]), (9, []), (0, [1]))
        assert sim._next_chunk(blocks, (0, 0), 4) == ([(0, 0, 1)], (1, 0))
        assert sim._next_chunk(blocks, (1, 0), 4) == ([(1, 0, 0)], (2, 0))
