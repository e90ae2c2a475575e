"""Tests for the coherence models — the vectorized classifier must agree
access-for-access with the event-at-a-time executable specification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS, build_app
from repro.codegen.spmd import Scheme
from repro.machine import scaled_dash
from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    direct_mapped_hits,
)
from repro.machine.coherence import (
    AccessClassification,
    ExactCoherentSim,
    classify_accesses,
)
from repro.machine.trace import program_traces
from repro.pipeline import CompileSession

FIELDS = ["hit", "cold", "replacement", "true_sharing", "false_sharing",
          "upgrade"]


def tiny_cfg():
    return CacheConfig(size_bytes=128, line_bytes=16)  # 8 sets


class TestScenarios:
    def test_cold_then_hit(self):
        cfg = tiny_cfg()
        proc = np.array([0, 0])
        addr = np.array([0, 8])
        write = np.array([False, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.cold.tolist() == [True, False]
        assert c.hit.tolist() == [False, True]

    def test_true_sharing(self):
        """P0 reads word, P1 writes THE SAME word, P0 rereads: true
        sharing miss."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0])
        addr = np.array([0, 0, 0])
        write = np.array([False, True, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.true_sharing.tolist() == [False, False, True]
        assert c.false_sharing.sum() == 0

    def test_false_sharing(self):
        """P1 writes a different word of the same line: false sharing."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0])
        addr = np.array([0, 8, 0])  # words 0 and 1, same 16B line
        write = np.array([False, True, False])
        c = classify_accesses(proc, addr, write, cfg, word_bytes=8)
        assert c.false_sharing.tolist() == [False, False, True]
        assert c.true_sharing.sum() == 0

    def test_own_write_no_invalidation(self):
        cfg = tiny_cfg()
        proc = np.array([0, 0, 0])
        addr = np.array([0, 0, 0])
        write = np.array([False, True, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.hit.tolist() == [False, True, True]

    def test_rewrite_after_other_reclaims(self):
        """P0 write, P1 write (invalidates P0), P0 read -> sharing miss;
        then P0 read again -> hit."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0, 0])
        addr = np.array([0, 0, 0, 0])
        write = np.array([True, True, False, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.true_sharing.tolist() == [False, False, True, False]
        assert c.hit.tolist() == [False, False, False, True]

    def test_replacement_beats_sharing_classification(self):
        """If the line was evicted by a conflict anyway, the miss is a
        replacement miss even if a remote write also occurred."""
        cfg = CacheConfig(size_bytes=32, line_bytes=16)  # 2 sets
        proc = np.array([0, 1, 0, 0])
        # line 0 and line 2 conflict in set 0 for proc 0
        addr = np.array([0, 0, 32, 0])
        write = np.array([False, True, False, False])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.replacement.tolist() == [False, False, False, True]

    def test_upgrade(self):
        """P0 caches line, P1 reads it (shared), P0 writes -> upgrade."""
        cfg = tiny_cfg()
        proc = np.array([0, 1, 0])
        addr = np.array([0, 0, 0])
        write = np.array([False, False, True])
        c = classify_accesses(proc, addr, write, cfg)
        assert c.upgrade.tolist() == [False, False, True]
        assert c.hit.tolist() == [False, False, True]

    def test_empty_stream(self):
        c = classify_accesses(
            np.zeros(0, dtype=int), np.zeros(0, dtype=int),
            np.zeros(0, dtype=bool), tiny_cfg(),
        )
        assert len(c.hit) == 0

    def test_word_straddling_lines_rejected(self):
        """A 12-byte word does not tile a 16-byte line: some words span
        two lines, where the fast classifier and the spec disagree."""
        proc = np.array([0, 1, 0])
        addr = np.array([12, 16, 12])
        write = np.array([False, True, False])
        with pytest.raises(ValueError, match="word_bytes=12"):
            classify_accesses(proc, addr, write, tiny_cfg(), word_bytes=12)


@st.composite
def trace(draw):
    n = draw(st.integers(1, 250))
    nprocs = draw(st.integers(1, 4))
    proc = draw(st.lists(st.integers(0, nprocs - 1), min_size=n, max_size=n))
    addr = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
    write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        nprocs,
        np.array(proc),
        np.array(addr) * 8,
        np.array(write),
    )


class TestEquivalence:
    @given(trace())
    @settings(max_examples=120, deadline=None)
    def test_fast_matches_exact(self, t):
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        fast = classify_accesses(proc, addr, write, cfg, word_bytes=8)
        exact = ExactCoherentSim(nprocs, cfg, word_bytes=8).run(
            proc, addr, write
        )
        for f in FIELDS:
            assert np.array_equal(getattr(fast, f), getattr(exact, f)), f

    @given(trace())
    @settings(max_examples=60, deadline=None)
    def test_partition_of_outcomes(self, t):
        """Every access is exactly one of: hit, cold, replacement, true
        sharing, false sharing."""
        nprocs, proc, addr, write = t
        c = classify_accesses(proc, addr, write, tiny_cfg())
        total = (
            c.hit.astype(int) + c.cold.astype(int)
            + c.replacement.astype(int) + c.true_sharing.astype(int)
            + c.false_sharing.astype(int)
        )
        assert (total == 1).all()

    @given(trace())
    @settings(max_examples=60, deadline=None)
    def test_single_processor_has_no_sharing(self, t):
        nprocs, proc, addr, write = t
        proc = np.zeros_like(proc)
        c = classify_accesses(proc, addr, write, tiny_cfg())
        assert c.true_sharing.sum() == 0
        assert c.false_sharing.sum() == 0
        assert c.upgrade.sum() == 0

    @given(trace())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_fast_matches_exact_with_l2(self, t):
        """With a second-level cache configured, the vectorized
        classifier and the event simulation must also agree on which
        first-level misses are absorbed by L2."""
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        l2 = CacheConfig(size_bytes=256, line_bytes=16)  # 16 sets
        fast = classify_accesses(proc, addr, write, cfg, word_bytes=8,
                                 l2=l2)
        exact = ExactCoherentSim(nprocs, cfg, word_bytes=8, l2=l2).run(
            proc, addr, write
        )
        for f in FIELDS + ["l2_hit"]:
            assert np.array_equal(getattr(fast, f), getattr(exact, f)), f

    @given(trace())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_l2_hits_are_l1_misses(self, t):
        nprocs, proc, addr, write = t
        c = classify_accesses(proc, addr, write, tiny_cfg(),
                              word_bytes=8,
                              l2=CacheConfig(256, 16))
        assert not (c.l2_hit & c.hit).any()
        assert not (c.l2_hit & c.upgrade).any()


class TestAssocLru:
    @given(trace())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_assoc_one_is_direct_mapped(self, t):
        """A 1-way LRU set is exactly a direct-mapped slot: the slow
        reference and the vectorized fast path must agree flag-for-flag
        on any interleaved multi-processor stream."""
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        assert np.array_equal(
            assoc_lru_hits(proc, addr, cfg),
            direct_mapped_hits(proc, addr, cfg),
        )

    @given(trace())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_fully_associative_hits_after_first_touch(self, t):
        """A fully associative cache big enough for the whole footprint
        never evicts: an access hits iff its (proc, line) was touched
        before."""
        nprocs, proc, addr, write = t
        # Addresses span words 0..31 (<= 16 lines of 16B); 16 ways in
        # one set hold the entire footprint per processor.
        cfg = CacheConfig(size_bytes=256, line_bytes=16, assoc=16)
        hits = assoc_lru_hits(proc, addr, cfg)
        seen = set()
        for i in range(len(addr)):
            key = (int(proc[i]), int(addr[i]) // cfg.line_bytes)
            assert hits[i] == (key in seen)
            seen.add(key)


class TestRealTraces:
    """The fast classifier against the spec on the merged streams that
    ``simulate`` replays (both rounds when the program has more than one
    time step).  At n=8 every miss class, upgrades included, occurs."""

    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    def test_fast_matches_exact(self, app):
        prog = build_app(app, n=8)
        word_bytes = min(d.element_size for d in prog.arrays.values())
        session = CompileSession()
        for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                       Scheme.COMP_DECOMP_DATA):
            for nprocs in (2, 4, 8):
                machine = scaled_dash(nprocs, scale=64,
                                      word_bytes=word_bytes).with_l2()
                spmd = session.compile(prog, scheme, nprocs)
                _, traces = program_traces(spmd, machine.numa.page_bytes)
                rounds = 2 if prog.time_steps > 1 else 1
                seq = [t for _ in range(rounds) for t in traces]
                proc = np.concatenate([t.proc for t in seq])
                addr = np.concatenate([t.addr for t in seq])
                write = np.concatenate([t.write for t in seq])
                for l2 in (None, machine.l2):
                    fast = classify_accesses(
                        proc, addr, write, machine.cache,
                        word_bytes=word_bytes, l2=l2)
                    exact = ExactCoherentSim(
                        nprocs, machine.cache, word_bytes=word_bytes, l2=l2,
                    ).run(proc, addr, write)
                    for f in FIELDS + ["l2_hit"]:
                        assert np.array_equal(
                            getattr(fast, f), getattr(exact, f)
                        ), (scheme.value, nprocs, l2, f)
