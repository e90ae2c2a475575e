"""Tests for the private cache models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import (
    CacheConfig,
    assoc_lru_hits,
    direct_mapped_hits,
    group_index,
    last_flagged_before,
    prev_in_group,
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


@st.composite
def keyed_stream(draw):
    """1-3 group keys plus a flag per position; each key draws its
    values from a small pool so that groups repeat."""
    n = draw(st.integers(0, 80))
    keys = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = KEY_RANGES[draw(st.sampled_from(sorted(KEY_RANGES)))]
        edges = [e for e in EDGES if lo <= e <= hi]
        pool = draw(st.lists(
            st.one_of(st.integers(lo, hi), st.sampled_from(edges)),
            min_size=1, max_size=4,
        ))
        keys.append(np.array(
            draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
            dtype=np.int64,
        ))
    flag = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    return keys, flag


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
