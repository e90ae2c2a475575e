"""Locality analytics vs. their brute-force oracles, plus the
simulate/bench/batch integration.

The reuse-distance and set-pressure implementations must match the
O(n^2)/dict oracles **bit-exactly** on small traces — the oracles are
the executable definitions, and any divergence is a correctness bug,
not noise.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.apps import ALL_APPS, build_app
from repro.codegen.spmd import Scheme
from repro.machine import scaled_dash
from repro.machine.cache import CacheConfig, assoc_lru_hits
from repro.machine.locality import (
    COLD,
    collect_locality,
    log2_bin_histogram,
    phase_array_heatmap,
    reuse_distances,
    reuse_distances_oracle,
    set_pressure,
    set_pressure_oracle,
)
from repro.machine.simulate import simulate
from repro.machine.trace import program_traces
from repro.pipeline.session import CompileSession
from tests.test_cache import naive_lru


@pytest.fixture(autouse=True)
def _clean_state():
    from repro import pipeline

    obs.disable()
    obs.reset()
    pipeline.reset_session()
    yield
    obs.disable()
    obs.reset()
    pipeline.reset_session()


def _compiled(app="stencil5", scheme=Scheme.COMP_DECOMP_DATA, nprocs=4,
              n=12):
    prog = build_app(app, n=n)
    spmd = CompileSession().compile(prog, scheme, nprocs)
    machine = scaled_dash(nprocs, scale=16, word_bytes=8)
    return spmd, machine


class TestReuseDistance:
    def test_hand_trace(self):
        # One proc, line size 1: stream a b c a b b -> distances
        # cold cold cold 2 2 0.
        proc = np.zeros(6, dtype=np.int64)
        addr = np.array([0, 1, 2, 0, 1, 1], dtype=np.int64)
        d = reuse_distances(proc, addr, line_bytes=1)
        assert d.tolist() == [COLD, COLD, COLD, 2, 2, 0]

    def test_line_granularity(self):
        # Two addresses on the same 16B line are the same block.
        proc = np.zeros(3, dtype=np.int64)
        addr = np.array([0, 8, 16], dtype=np.int64)
        d = reuse_distances(proc, addr, line_bytes=16)
        assert d.tolist() == [COLD, 0, COLD]

    def test_per_proc_streams_independent(self):
        # Interleaved procs must not see each other's lines.
        proc = np.array([0, 1, 0, 1], dtype=np.int64)
        addr = np.array([0, 0, 0, 0], dtype=np.int64)
        d = reuse_distances(proc, addr, line_bytes=16)
        assert d.tolist() == [COLD, COLD, 0, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        proc = rng.integers(0, 4, n)
        addr = rng.integers(0, 600, n) * 4
        fast = reuse_distances(proc, addr, 16)
        slow = reuse_distances_oracle(proc, addr, 16)
        assert (fast == slow).all()

    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    def test_matches_oracle_real_trace(self, app):
        """Reuse distance, set pressure and the 2- and 4-way LRU hits
        against their definitions on one round of the stream, as
        collect_locality sees it, for every scheme and P in {2, 4, 8}."""
        prog = build_app(app, n=8)
        word_bytes = min(d.element_size for d in prog.arrays.values())
        session = CompileSession()
        for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                       Scheme.COMP_DECOMP_DATA):
            for nprocs in (2, 4, 8):
                machine = scaled_dash(nprocs, scale=64,
                                      word_bytes=word_bytes)
                cfg = machine.cache
                spmd = session.compile(prog, scheme, nprocs)
                _, traces = program_traces(spmd, machine.numa.page_bytes)
                live = [t for t in traces if t.n_accesses]
                addr = np.concatenate([t.addr for t in live])
                proc = np.concatenate([t.proc for t in live])
                point = (scheme.value, nprocs)
                assert np.array_equal(
                    reuse_distances(proc, addr, cfg.line_bytes),
                    reuse_distances_oracle(proc, addr, cfg.line_bytes),
                ), point
                assert np.array_equal(
                    set_pressure(proc, addr, cfg),
                    set_pressure_oracle(proc, addr, cfg),
                ), point
                for assoc in (2, 4):
                    ways = replace(cfg, assoc=assoc)
                    assert np.array_equal(
                        assoc_lru_hits(proc, addr, ways),
                        naive_lru(proc, addr, ways),
                    ), point + (assoc,)

    def test_empty_stream(self):
        empty = np.zeros(0, dtype=np.int64)
        assert reuse_distances(empty, empty).tolist() == []


class TestSetPressure:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        proc = rng.integers(0, 3, n)
        addr = rng.integers(0, 800, n) * 8
        cfg = CacheConfig(size_bytes=256, line_bytes=16)
        assert (set_pressure(proc, addr, cfg)
                == set_pressure_oracle(proc, addr, cfg)).all()

    def test_aliasing_concentrates_pressure(self):
        # Lines exactly one cache apart map to the same set: the
        # power-of-two aliasing signature.
        cfg = CacheConfig(size_bytes=256, line_bytes=16)  # 16 sets
        proc = np.zeros(4, dtype=np.int64)
        addr = np.array([0, 256, 512, 768], dtype=np.int64)
        p = set_pressure(proc, addr, cfg)
        assert p.shape == (1, 16)
        assert p[0, 0] == 4
        assert p.sum() == 4

    def test_empty_stream(self):
        cfg = CacheConfig(size_bytes=256, line_bytes=16)
        empty = np.zeros(0, dtype=np.int64)
        assert set_pressure(empty, empty, cfg).shape == (0, 16)


class TestHistogramAndHeatmap:
    def test_log2_bins(self):
        vals = np.array([-1, 0, 0, 1, 2, 3, 4, 7, 8, 100])
        h = log2_bin_histogram(vals)
        assert h == {"0": 2, "1": 1, "2": 2, "4": 2, "8": 1, "64": 1}
        # Negative (cold) markers are excluded, keys numerically sorted.
        assert [int(k) for k in h] == sorted(int(k) for k in h)

    def test_log2_empty(self):
        assert log2_bin_histogram(np.array([], dtype=np.int64)) == {}
        assert log2_bin_histogram(np.array([-1, -1])) == {}

    def test_heatmap_counts_match_traces(self):
        spmd, machine = _compiled(n=8)
        space, traces = program_traces(spmd, machine.numa.page_bytes)
        hm = phase_array_heatmap(space, traces)
        assert hm["phases"] == [t.nest_name for t in traces]
        for t, row in zip(traces, hm["counts"]):
            assert sum(row) == t.n_accesses


class TestCollectLocality:
    def test_deterministic_and_json_ready(self):
        spmd, machine = _compiled()
        space, traces = program_traces(spmd, machine.numa.page_bytes)
        a = collect_locality(space, traces, machine.cache).as_dict()
        b = collect_locality(space, traces, machine.cache).as_dict()
        assert a == b
        assert json.loads(json.dumps(a)) == a
        for name, r in a["reuse"].items():
            assert r["accesses"] == r["cold"] + sum(
                v for v in r["hist"].values())

    def test_simulate_opt_in(self):
        spmd, machine = _compiled(n=8)
        plain = simulate(spmd, machine)
        assert plain.locality == {}
        loc = simulate(spmd, machine, locality=True)
        assert loc.locality["reuse"]
        assert loc.total_time == plain.total_time

    def test_simulate_locality_stable_across_calls(self):
        spmd, machine = _compiled(n=8)
        a = simulate(spmd, machine, locality=True).locality
        b = simulate(spmd, machine, locality=True).locality
        assert a == b


class TestBenchRoundTrip:
    def test_snapshot_carries_locality_and_profile(self, tmp_path):
        from repro.obs import bench
        from repro.obs.compare import read_run

        snap = bench.run_bench(apps=["simple"], schemes=["base"],
                               procs=[1], n=8)
        assert snap["schema"] == bench.SCHEMA_VERSION
        point = snap["points"][0]
        assert point["sim"]["locality"]["reuse"]
        # Nothing that no comparison reads is stored.
        assert "profile" not in point
        # Round-trip: save, load, exact-match compare.
        path, _ = bench.save_snapshot(snap, out_dir=tmp_path,
                                      latest=None)
        loaded = read_run(path)
        assert loaded["points"][0]["sim"]["locality"] == \
               point["sim"]["locality"]
        cmp = bench.compare_snapshots(loaded, snap)
        assert cmp.ok, [r for r in cmp.rows if r.failing]

    def test_locality_drift_fails_gate(self, tmp_path):
        from repro.obs import bench

        snap = bench.run_bench(apps=["simple"], schemes=["base"],
                               procs=[1], n=8)
        mutated = json.loads(json.dumps(snap))
        reuse = mutated["points"][0]["sim"]["locality"]["reuse"]
        first = next(iter(reuse))
        reuse[first]["cold"] += 1
        cmp = bench.compare_snapshots(snap, mutated)
        assert not cmp.ok
        assert any("locality" in r.metric for r in cmp.regressions)


class TestBatchLocality:
    def test_batch_result_carries_locality(self):
        from repro.pipeline.grid import GridPoint, run_grid

        points = [GridPoint(app="simple", scheme="base", nprocs=2, n=8)]
        res = run_grid(points, jobs=1, cache=False, locality=True)
        assert res[0].ok
        assert res[0].locality["reuse"]
        assert "locality" in res[0].as_dict()

    def test_batch_locality_off_by_default(self):
        from repro.pipeline.grid import GridPoint, run_grid

        points = [GridPoint(app="simple", scheme="base", nprocs=2, n=8)]
        res = run_grid(points, jobs=1, cache=False)
        assert res[0].ok
        assert res[0].locality == {}
