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
    COLD,
    HIT,
    OUTCOMES,
    REPLACEMENT,
    UPGRADE,
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
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_fast_matches_exact_set_associative(self, t):
        """LRU sets at either level: the spec keeps each (processor,
        set)'s most recent lines, invalidated ones in place."""
        nprocs, proc, addr, write = t
        two_way_l2 = CacheConfig(size_bytes=256, line_bytes=16, assoc=2)
        for cfg, l2 in ((CacheConfig(128, 16, assoc=2), None),
                        (CacheConfig(128, 16, assoc=4), two_way_l2),
                        (tiny_cfg(), two_way_l2)):
            fast = classify_accesses(proc, addr, write, cfg, word_bytes=8,
                                     l2=l2)
            exact = ExactCoherentSim(nprocs, cfg, word_bytes=8, l2=l2).run(
                proc, addr, write)
            assert np.array_equal(fast.code, exact.code), (cfg, l2)

    @given(trace())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_l2_hits_are_l1_misses(self, t):
        nprocs, proc, addr, write = t
        c = classify_accesses(proc, addr, write, tiny_cfg(),
                              word_bytes=8,
                              l2=CacheConfig(256, 16))
        assert not (c.l2_hit & c.hit).any()
        assert not (c.l2_hit & c.upgrade).any()


class TestPack:
    """The spec's flags reach an ``AccessClassification`` only through
    ``pack``, which refuses flags that are not one outcome per access."""

    def flags(self):
        return dict(
            write=np.array([False, True, False, True]),
            hit=np.array([True, True, False, False]),
            cold=np.array([False, False, True, False]),
            replacement=np.array([False, False, False, True]),
            true_sharing=np.zeros(4, dtype=bool),
            false_sharing=np.zeros(4, dtype=bool),
            upgrade=np.array([False, True, False, False]),
            l2_hit=np.array([False, False, False, True]),
        )

    def test_codes(self):
        c = AccessClassification.pack(**self.flags())
        assert c.code.dtype == np.uint8
        assert c.code.tolist() == [HIT, UPGRADE, COLD, REPLACEMENT + 1]
        for name, flag in self.flags().items():
            if name != "write":
                assert np.array_equal(getattr(c, name), flag), name
        assert c.miss.tolist() == [False, False, True, True]

    def test_every_code_reads_back(self):
        # Every flag is read from the code alone.
        c = AccessClassification(np.arange(OUTCOMES, dtype=np.uint8))
        write = np.ones(OUTCOMES, dtype=bool)
        again = AccessClassification.pack(
            write, hit=c.hit, cold=c.cold, replacement=c.replacement,
            true_sharing=c.true_sharing, false_sharing=c.false_sharing,
            upgrade=c.upgrade, l2_hit=c.l2_hit)
        assert again.code.tolist() == list(range(OUTCOMES))

    @pytest.mark.parametrize("change, match", [
        ({"cold": np.array([True, False, True, False])}, "partition"),
        ({"replacement": np.zeros(4, dtype=bool)}, "partition"),
        ({"upgrade": np.array([True, True, False, False])}, "write hit"),
        ({"upgrade": np.array([False, True, False, True])}, "write hit"),
        ({"l2_hit": np.array([False, True, False, True])}, "miss"),
    ])
    def test_refuses_flags_that_are_not_one_outcome(self, change, match):
        with pytest.raises(ValueError, match=match):
            AccessClassification.pack(**{**self.flags(), **change})


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


def tiled(rounds, *arrays):
    return [np.tile(a, rounds) for a in arrays]


class TestRounds:
    """``classify_accesses(..., rounds=r)`` classifies the stream
    repeated r times back-to-back while scanning only one copy."""

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @given(trace())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_exact_on_tiled_stream(self, rounds, t):
        nprocs, proc, addr, write = t
        cfg = tiny_cfg()
        for l2 in (None, CacheConfig(size_bytes=256, line_bytes=16)):
            fast = classify_accesses(proc, addr, write, cfg, word_bytes=8,
                                     l2=l2, rounds=rounds)
            exact = ExactCoherentSim(nprocs, cfg, word_bytes=8, l2=l2).run(
                *tiled(rounds, proc, addr, write))
            for f in FIELDS + ["l2_hit"]:
                assert np.array_equal(getattr(fast, f), getattr(exact, f)), (
                    l2, f)

    @pytest.mark.parametrize("rounds", [2, 3])
    @given(trace())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_fast_path_on_tiled_stream(self, rounds, t):
        """Set-associative geometries, and a 2-way L2, against the
        one-round fast path on the tiled stream."""
        _, proc, addr, write = t
        two_way_l2 = CacheConfig(size_bytes=256, line_bytes=16, assoc=2)
        for cfg, l2 in ((CacheConfig(128, 16, assoc=2), None),
                        (CacheConfig(128, 16, assoc=4), None),
                        (tiny_cfg(), two_way_l2),
                        (CacheConfig(128, 16, assoc=2), two_way_l2)):
            fast = classify_accesses(proc, addr, write, cfg, word_bytes=8,
                                     l2=l2, rounds=rounds)
            ref = classify_accesses(*tiled(rounds, proc, addr, write), cfg,
                                    word_bytes=8, l2=l2)
            for f in FIELDS + ["l2_hit"]:
                assert np.array_equal(getattr(fast, f), getattr(ref, f)), (
                    cfg, l2, f)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_empty_stream(self, rounds):
        empty = np.zeros(0, dtype=int)
        for cfg, l2 in ((tiny_cfg(), None),
                        (tiny_cfg(), CacheConfig(256, 16)),
                        (CacheConfig(128, 16, assoc=2),
                         CacheConfig(256, 16, assoc=2))):
            c = classify_accesses(empty, empty, empty.astype(bool), cfg,
                                  l2=l2, rounds=rounds)
            for f in FIELDS + ["l2_hit"]:
                assert len(getattr(c, f)) == 0, (cfg, l2, f)

    @given(trace())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_spec_repeats_round_one(self, t):
        """In the spec itself rounds 2 and 3 equal round 1 flag for
        flag, which is what makes ``round0 + (T-1) * round1`` exact."""
        nprocs, proc, addr, write = t
        for l2 in (None, CacheConfig(size_bytes=256, line_bytes=16)):
            exact = ExactCoherentSim(nprocs, tiny_cfg(), word_bytes=8,
                                     l2=l2).run(*tiled(4, proc, addr, write))
            for f in FIELDS + ["l2_hit"]:
                by_round = getattr(exact, f).reshape(4, len(addr))
                assert np.array_equal(by_round[2], by_round[1]), (l2, f)
                assert np.array_equal(by_round[3], by_round[1]), (l2, f)


def edge_streams():
    """Streams where a subset the classifier sorts or searches (the
    writes, the tag misses, the tag hits, the invalidated accesses) is
    empty or is the whole stream (after the first touches)."""
    n = 48
    k = np.arange(n)
    return {
        # No writes: nothing to search for an invalidation.
        "no_writes": (3, k % 3, (k * 40) % 256, np.zeros(n, dtype=bool)),
        # One processor: no remote writes, no upgrades.
        "one_processor": (1, np.zeros(n, dtype=int), (k * 24) % 256,
                          k % 4 == 0),
        # Every access is some processor's first touch of its line.
        "first_touches": (3, k % 3, (k // 3) * 16, k % 5 == 0),
        # After the first touches every access is a tag hit: each
        # processor keeps to its own lines, in distinct sets.
        "tag_hits": (4, k % 4, (k % 4) * 16 + (k // 4) % 2 * 8, k % 7 == 0),
        # Two processors write one word in turn: after the first touches
        # every access is invalidated, and by a write to its own word.
        "ping_pong": (2, k % 2, np.zeros(n, dtype=int),
                      np.ones(n, dtype=bool)),
    }


class TestSubsetEdges:
    """The spec and the rounds spec on streams whose sorted or searched
    subsets are empty or total; random streams rarely draw these."""

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(edge_streams()))
    def test_matches_exact_on_tiled_stream(self, name, rounds):
        nprocs, proc, addr, write = edge_streams()[name]
        for l2 in (None, CacheConfig(size_bytes=256, line_bytes=16)):
            fast = classify_accesses(proc, addr, write, tiny_cfg(),
                                     word_bytes=8, l2=l2, rounds=rounds)
            exact = ExactCoherentSim(nprocs, tiny_cfg(), word_bytes=8,
                                     l2=l2).run(
                *tiled(rounds, proc, addr, write))
            for f in FIELDS + ["l2_hit"]:
                assert np.array_equal(getattr(fast, f), getattr(exact, f)), (
                    l2, f)

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize("name", sorted(edge_streams()))
    def test_matches_fast_path_on_tiled_stream(self, name, rounds):
        _, proc, addr, write = edge_streams()[name]
        two_way_l2 = CacheConfig(size_bytes=256, line_bytes=16, assoc=2)
        for cfg, l2 in ((CacheConfig(128, 16, assoc=2), None),
                        (CacheConfig(128, 16, assoc=4), two_way_l2),
                        (tiny_cfg(), two_way_l2)):
            fast = classify_accesses(proc, addr, write, cfg, word_bytes=8,
                                     l2=l2, rounds=rounds)
            ref = classify_accesses(*tiled(rounds, proc, addr, write), cfg,
                                    word_bytes=8, l2=l2)
            for f in FIELDS + ["l2_hit"]:
                assert np.array_equal(getattr(fast, f), getattr(ref, f)), (
                    cfg, l2, f)

    @pytest.mark.parametrize("name", sorted(edge_streams()))
    def test_stream_is_the_edge_it_names(self, name):
        nprocs, proc, addr, write = edge_streams()[name]
        c = classify_accesses(proc, addr, write, tiny_cfg(), rounds=2)
        n = len(addr)
        once, later = c.hit[:n], c.hit[n:]
        first = np.zeros(n, dtype=bool)
        first[np.unique(np.stack([addr // 16, proc]), axis=1,
                        return_index=True)[1]] = True
        sharing = c.true_sharing | c.false_sharing
        if name == "no_writes":
            assert not write.any() and not sharing.any()
        elif name == "one_processor":
            assert not (sharing.any() or c.upgrade.any())
        elif name == "first_touches":
            assert first.all() and c.cold[:n].all()
        elif name == "tag_hits":
            assert np.array_equal(once, ~first) and later.all()
        else:
            assert np.array_equal(c.true_sharing[:n], ~first)
            assert c.true_sharing[n:].all()


class TestRealTraces:
    """The fast classifier against the spec on the merged streams that
    ``simulate`` classifies (both rounds when the program has more than
    one time step), both on the concatenated rounds and derived from one
    round with ``rounds``, with a 1-, 2- and 4-way L1, each with and
    without the L2.  The spec's flags are packed through the checking
    constructor, so they partition every access.  At n=8 every miss
    class, upgrades included, occurs."""

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
                one_round = [np.concatenate([getattr(t, a) for t in traces])
                             for a in ("proc", "addr", "write")]
                for assoc in (1, 2, 4):
                    l1 = CacheConfig(machine.cache.size_bytes,
                                     machine.cache.line_bytes, assoc=assoc)
                    for l2 in (None, machine.l2):
                        fast = classify_accesses(
                            proc, addr, write, l1, word_bytes=word_bytes,
                            l2=l2)
                        derived = classify_accesses(
                            *one_round, l1, word_bytes=word_bytes, l2=l2,
                            rounds=rounds)
                        exact = ExactCoherentSim(
                            nprocs, l1, word_bytes=word_bytes, l2=l2,
                        ).run(proc, addr, write)
                        where = (scheme.value, nprocs, assoc, l2)
                        assert np.array_equal(fast.code, exact.code), where
                        assert np.array_equal(derived.code, exact.code), (
                            *where, "rounds")
