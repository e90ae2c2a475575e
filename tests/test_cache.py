"""Tests for the private cache models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import cache
from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    direct_mapped_hits,
    group_index,
    last_flagged_before,
    last_in_group,
    prev_in_group,
    stack_distances,
)


class TestConfig:
    def test_geometry(self):
        c = CacheConfig(size_bytes=256, line_bytes=16)
        assert c.nlines == 16
        assert c.nsets == 16

    def test_assoc_geometry(self):
        c = CacheConfig(size_bytes=256, line_bytes=16, assoc=2)
        assert c.nsets == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=100, line_bytes=16)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, line_bytes=16)

    @pytest.mark.parametrize("geometry", [
        dict(size_bytes=256, line_bytes=0),
        dict(size_bytes=256, assoc=0),
        dict(size_bytes=0),
        dict(size_bytes=256, line_bytes=-16),
    ])
    def test_nonpositive_parameters_raise_value_error(self, geometry):
        with pytest.raises(ValueError, match="positive"):
            CacheConfig(**geometry)

    def test_mapping(self):
        c = CacheConfig(size_bytes=64, line_bytes=16)  # 4 sets
        assert c.line_of(np.array([0, 16, 64])).tolist() == [0, 1, 4]
        assert c.set_of(np.array([0, 1, 4, 5])).tolist() == [0, 1, 0, 1]


# Key value ranges that narrow to different dtypes; "negative" spans
# -1 and 65535, which a narrowing that ignored the sign would merge.
KEY_RANGES = {
    "u8": (0, 2**8 - 1),
    "u16": (0, 2**16 - 1),
    "wide": (2**16, 2**40),
    "negative": (-2**17, 2**16 - 1),
}
EDGES = (-2**15 - 1, -1, 0, 2**8 - 1, 2**8, 2**16 - 1, 2**16)


def pooled_key(draw, n):
    """``n`` values of one group key, drawn from a small pool in one of
    KEY_RANGES so that groups repeat."""
    lo, hi = KEY_RANGES[draw(st.sampled_from(sorted(KEY_RANGES)))]
    edges = [e for e in EDGES if lo <= e <= hi]
    pool = draw(st.lists(
        st.one_of(st.integers(lo, hi), st.sampled_from(edges)),
        min_size=1, max_size=4,
    ))
    return np.array(
        draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
        dtype=np.int64,
    )


@st.composite
def keyed_stream(draw):
    """1-3 group keys plus a flag per position."""
    n = draw(st.integers(0, 80))
    keys = [pooled_key(draw, n) for _ in range(draw(st.integers(1, 3)))]
    flag = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    return keys, flag


@st.composite
def line_stream(draw):
    """Up to 8 distinct lines (offset so that the line key narrows to
    different dtypes) plus 0-2 group keys."""
    n = draw(st.integers(0, 80))
    offset = draw(st.sampled_from((0, -2**15, 2**16 - 4, 2**40)))
    line = offset + np.array(
        draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return line, [pooled_key(draw, n) for _ in range(draw(st.integers(0, 2)))]


def naive_group_scans(keys, flag):
    """Reference: per-group previous position and last flagged position
    before each access, from a dict walk over the stream."""
    last_any, last_flagged = {}, {}
    prev, lfb = [], []
    for i, key in enumerate(zip(*(k.tolist() for k in keys))):
        prev.append(last_any.get(key, -1))
        lfb.append(last_flagged.get(key, -1))
        last_any[key] = i
        if flag[i]:
            last_flagged[key] = i
    return prev, lfb


def naive_stack_distances(line, group):
    """Reference: an LRU recency list per group; an access's distance is
    the number of lines above its own, -1 if it is not in the list."""
    keys = zip(*(g.tolist() for g in group)) if group else [()] * len(line)
    stacks = {}
    out = []
    for ln, key in zip(line.tolist(), keys):
        stack = stacks.setdefault(key, [])
        if ln in stack:
            out.append(len(stack) - 1 - stack.index(ln))
            stack.remove(ln)
        else:
            out.append(-1)
        stack.append(ln)
    return out


class TestGroupIndex:
    @given(keyed_stream())
    @settings(max_examples=300, deadline=None)
    def test_order_is_lexsort_of_int64_keys(self, t):
        keys, _ = t
        order, start = group_index(*keys)
        wide = [k.astype(np.int64) for k in keys]
        assert order.tolist() == np.lexsort(wide[::-1]).tolist()
        rows = list(zip(*(k.tolist() for k in keys)))
        assert start.tolist() == [
            j == 0 or rows[order[j]] != rows[order[j - 1]]
            for j in range(len(order))
        ]

    @given(keyed_stream())
    @settings(max_examples=300, deadline=None)
    def test_scans_match_dict_walk(self, t):
        keys, flag = t
        order, start = group_index(*keys)
        prev, lfb = naive_group_scans(keys, flag)
        assert prev_in_group(order, start).tolist() == prev
        assert last_flagged_before(order, start, flag).tolist() == lfb

    @given(keyed_stream())
    @settings(max_examples=300, deadline=None)
    def test_group_ends_match_dict_walk(self, t):
        """First, last and last flagged position of every group, in
        group order."""
        keys, flag = t
        order, start = group_index(*keys)
        first, last, last_flagged = {}, {}, {}
        for i, key in enumerate(zip(*(k.tolist() for k in keys))):
            first.setdefault(key, i)
            last[key] = i
            if flag[i]:
                last_flagged[key] = i
        groups = sorted(first)
        assert order[start].tolist() == [first[g] for g in groups]
        assert last_in_group(order, start).tolist() == [
            last[g] for g in groups]
        assert last_in_group(order, start, flag).tolist() == [
            last_flagged.get(g, -1) for g in groups]


def layer_bounds(*bounds):
    """Set :data:`cache.LAYERS`, the peel's layer bound, to each of
    ``bounds`` in turn, by default its own value, then 0 (the merge
    alone), 1 and 2, yielding each."""
    for bound in bounds or (cache.LAYERS, 0, 1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache, "LAYERS", bound)
            yield bound


def up_and_down(k, n):
    """``n`` accesses sweeping lines 0..k-1 up and down.  After the
    first sweep, each one opens with an immediate repeat, and its other
    k - 1 accesses are a run of falling previous-access indices."""
    return np.resize(np.r_[np.arange(k), np.arange(k)[::-1]], n)


class TestStackDistances:
    @given(line_stream())
    @settings(max_examples=300, deadline=None)
    def test_matches_recency_walk(self, t):
        line, group = t
        assert (stack_distances(line, *group).tolist()
                == naive_stack_distances(line, group))

    @given(line_stream())
    @settings(max_examples=300, deadline=None)
    def test_matches_recency_walk_in_slices_of_8(self, t):
        """At layer bounds 0, 1 and 2: at 0 the merge counts every
        merged access, at 1 and 2 it counts what the peel leaves of
        streams whose falling runs are up to 7 long, each merged whole.
        (The name is kept from the slices of 8 merged accesses that the
        merge took before the peel.)"""
        line, group = t
        want = naive_stack_distances(line, group)
        for bound in layer_bounds(0, 1, 2):
            assert stack_distances(line, *group).tolist() == want, bound

    def test_peel_leaves_long_falling_runs_to_merge(self, monkeypatch):
        """Six groups sweeping 3 to 20 lines up and down: the layers
        peel the short falling runs and leave the long ones, so the peel
        and the merge both run at every bound but 0, where the merge
        alone counts every merged access."""
        merged = []

        def spy(v):
            merged.append(len(v))
            return earlier_larger(v)

        earlier_larger = cache._earlier_larger
        monkeypatch.setattr(cache, "_earlier_larger", spy)
        line = np.concatenate([up_and_down(k, 200)
                               for k in (3, 5, 9, 12, 17, 20)])
        proc = np.repeat(np.arange(6), 200)
        want = naive_stack_distances(line, [proc])
        # Neither cold (-1) nor an immediate repeat (0): merged.
        everything = sum(d > 0 for d in want)
        for bound in layer_bounds():
            merged.clear()
            assert stack_distances(line, proc).tolist() == want, bound
            assert len(merged) == 1, bound
            if bound:
                assert 0 < merged[0] < everything, bound
            else:
                assert merged[0] == everything

    def test_group_beyond_int32_keys(self, monkeypatch):
        """One group of 60,000 accesses sweeping 64 lines up and down:
        8 layers peel 8 of each sweep's run of 63 falling previous-access
        indices, and the merge of what is left needs sort keys (count
        times span) from 2^31 on, int64."""
        monkeypatch.setattr(cache, "LAYERS", 8)
        seen = []

        def spy(v):
            larger = earlier_larger(v)
            seen.append(larger.dtype)
            return larger

        earlier_larger = cache._earlier_larger
        monkeypatch.setattr(cache, "_earlier_larger", spy)
        line = up_and_down(64, 60_000)
        proc = np.zeros(len(line), dtype=np.int8)
        assert (stack_distances(line, proc).tolist()
                == naive_stack_distances(line, [proc]))
        assert seen == [np.int64]

    @pytest.mark.parametrize("ngroup", [0, 1, 2])
    def test_only_cold_accesses(self, ngroup):
        """Every access a first touch: nothing to merge, all -1."""
        i = np.arange(300)
        group = [i % 3, i % 2][:ngroup]
        assert stack_distances(i * 7, *group).tolist() == [-1] * 300

    @pytest.mark.parametrize("ngroup", [0, 1, 2])
    def test_only_immediate_repeats(self, ngroup):
        """Each group touches one line: after its first touch, every
        access repeats the one before it in the group, so there is
        nothing to merge and every distance is 0."""
        i = np.arange(300)
        group = [i % 3, i % 2][:ngroup]
        line = np.full(300, 5) + sum(g * 10**k for k, g in enumerate(group))
        ngroups = [1, 3, 6][ngroup]
        assert (stack_distances(line, *group).tolist()
                == [-1] * ngroups + [0] * (300 - ngroups))

    @pytest.mark.parametrize("ngroup", [0, 1, 2])
    def test_empty_stream(self, ngroup):
        empty = np.zeros(0, dtype=np.int64)
        assert stack_distances(empty, *[empty] * ngroup).tolist() == []


def naive_direct_mapped(proc, addr, cfg):
    """Reference implementation: dict-based direct-mapped caches."""
    cache = {}
    hits = np.zeros(len(addr), dtype=bool)
    for i, (p, a) in enumerate(zip(proc, addr)):
        ln = a // cfg.line_bytes
        s = ln % cfg.nsets
        hits[i] = cache.get((p, s)) == ln
        cache[(p, s)] = ln
    return hits


def naive_lru(proc, addr, cfg):
    """Reference implementation: an LRU recency list per (proc, set)."""
    n = len(addr)
    line = cfg.line_of(addr)
    set_idx = cfg.set_of(line)
    hits = np.zeros(n, dtype=bool)
    state: dict = {}
    for i in range(n):
        key = (int(proc[i]), int(set_idx[i]))
        ways = state.setdefault(key, [])
        ln = int(line[i])
        if ln in ways:
            ways.remove(ln)
            ways.append(ln)
            hits[i] = True
        else:
            ways.append(ln)
            if len(ways) > cfg.assoc:
                ways.pop(0)
    return hits


class TestDirectMapped:
    def test_simple_reuse(self):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.zeros(4, dtype=np.int64)
        addr = np.array([0, 4, 8, 16])  # same line x3 then new line
        hits = direct_mapped_hits(proc, addr, cfg)
        assert hits.tolist() == [False, True, True, False]

    def test_conflict_eviction(self):
        cfg = CacheConfig(size_bytes=32, line_bytes=16)  # 2 sets
        proc = np.zeros(3, dtype=np.int64)
        # lines 0 and 2 both map to set 0
        addr = np.array([0, 32, 0])
        hits = direct_mapped_hits(proc, addr, cfg)
        assert hits.tolist() == [False, False, False]

    def test_per_processor_isolation(self):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.array([0, 1, 0, 1])
        addr = np.array([0, 0, 0, 0])
        hits = direct_mapped_hits(proc, addr, cfg)
        assert hits.tolist() == [False, False, True, True]

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)),
                 min_size=1, max_size=200)
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, accesses):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.array([p for p, _ in accesses], dtype=np.int64)
        addr = np.array([a for _, a in accesses], dtype=np.int64)
        fast = direct_mapped_hits(proc, addr, cfg)
        ref = naive_direct_mapped(proc, addr, cfg)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 255)),
                 max_size=120)
    )
    @settings(max_examples=60, deadline=None)
    def test_rounds_match_naive_on_tiled_stream(self, rounds, accesses):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        proc = np.array([p for p, _ in accesses], dtype=np.int64)
        addr = np.array([a for _, a in accesses], dtype=np.int64)
        ref = naive_direct_mapped(np.tile(proc, rounds),
                                  np.tile(addr, rounds), cfg)
        assert np.array_equal(direct_mapped_hits(proc, addr, cfg, rounds),
                              ref)


class TestAssocLRU:
    def test_two_way_avoids_conflict(self):
        cfg1 = CacheConfig(size_bytes=32, line_bytes=16, assoc=1)
        cfg2 = CacheConfig(size_bytes=32, line_bytes=16, assoc=2)
        proc = np.zeros(4, dtype=np.int64)
        addr = np.array([0, 32, 0, 32])  # ping-pong between 2 lines
        dm = assoc_lru_hits(proc, addr, cfg1)
        tw = assoc_lru_hits(proc, addr, cfg2)
        assert dm.tolist() == [False, False, False, False]
        assert tw.tolist() == [False, False, True, True]

    def test_lru_order(self):
        cfg = CacheConfig(size_bytes=32, line_bytes=16, assoc=2)
        proc = np.zeros(6, dtype=np.int64)
        # lines 0,2 fit the 2-way set; line 4 evicts the LRU line 0.
        addr = np.array([0, 32, 0, 32, 64, 32])
        hits = assoc_lru_hits(proc, addr, cfg)
        assert hits.tolist() == [False, False, True, True, False, True]

    def test_assoc1_matches_direct(self):
        cfg = CacheConfig(size_bytes=64, line_bytes=16)
        rng = np.random.default_rng(3)
        proc = rng.integers(0, 2, 100)
        addr = rng.integers(0, 16, 100) * 16
        assert np.array_equal(
            assoc_lru_hits(proc, addr, cfg),
            direct_mapped_hits(proc, addr, cfg),
        )

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @given(
        nsets=st.sampled_from([1, 2, 4]),
        accesses=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 24 * 16 - 1)),
            max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive(self, assoc, nsets, accesses):
        # 24 lines on 1-4 sets: every geometry but 8 ways on 4 sets
        # must evict, on interleaved streams of up to 4 processors.
        cfg = CacheConfig(size_bytes=16 * assoc * nsets, line_bytes=16,
                          assoc=assoc)
        proc = np.array([p for p, _ in accesses], dtype=np.int64)
        addr = np.array([a for _, a in accesses], dtype=np.int64)
        assert np.array_equal(assoc_lru_hits(proc, addr, cfg),
                              naive_lru(proc, addr, cfg))

    @pytest.mark.parametrize("rounds", [2, 3])
    @pytest.mark.parametrize("assoc", [2, 4])
    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 12 * 16 - 1)),
            max_size=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_rounds_match_naive_on_tiled_stream(self, rounds, assoc,
                                                accesses):
        cfg = CacheConfig(size_bytes=16 * assoc * 2, line_bytes=16,
                          assoc=assoc)
        proc = np.array([p for p, _ in accesses], dtype=np.int64)
        addr = np.array([a for _, a in accesses], dtype=np.int64)
        ref = naive_lru(np.tile(proc, rounds), np.tile(addr, rounds), cfg)
        assert np.array_equal(assoc_lru_hits(proc, addr, cfg, rounds), ref)
