"""Tests for NUMA homing, the cost model, and the DASH configs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS, build_app
from repro.codegen.spmd import Scheme
from repro.machine.cost import CostParams, per_proc_cycles, phase_time
from repro.machine.dash import DashConfig, dash_machine, scaled_dash
from repro.machine.numa import NumaConfig, first_touch_homes, local_miss_mask
from repro.machine.trace import program_traces
from repro.pipeline import CompileSession


class TestNuma:
    def test_first_touch(self):
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        addr = np.array([0, 0, 64, 64])
        proc = np.array([0, 3, 3, 0])
        _, home = first_touch_homes(addr, proc, cfg)
        assert home.tolist() == [0, 0, 1, 1]

    def test_local_mask(self):
        cfg = NumaConfig(page_bytes=64, cluster_size=2)
        addr = np.array([0, 0, 0])
        proc = np.array([0, 1, 2])
        local = local_miss_mask(addr, proc, cfg)
        # proc 0 and 1 share cluster 0 (first toucher) -> local
        assert local.tolist() == [True, True, False]

    def test_empty(self):
        cfg = NumaConfig()
        page, home = first_touch_homes(
            np.zeros(0, dtype=int), np.zeros(0, dtype=int), cfg
        )
        assert len(page) == 0

    def test_cluster_of(self):
        cfg = NumaConfig(cluster_size=4)
        assert cfg.cluster_of(np.array([0, 3, 4, 31])).tolist() == [0, 0, 1, 7]

    @given(
        st.sampled_from([64, 256, 4096]),
        st.integers(1, 4),
        st.lists(st.integers(0, 100_000), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_touch_matches_dict_walk(self, page_bytes, cluster_size,
                                           pages, data):
        """Sparse page ids: each page's home is the cluster of the
        processor whose access to it comes first in the stream."""
        cfg = NumaConfig(page_bytes=page_bytes, cluster_size=cluster_size)
        accesses = data.draw(st.lists(
            st.tuples(st.sampled_from(pages),
                      st.integers(0, page_bytes - 1), st.integers(0, 31)),
            min_size=1, max_size=120,
        ))
        addr = np.array([pg * page_bytes + off for pg, off, _ in accesses])
        proc = np.array([p for _, _, p in accesses])
        first: dict = {}
        for a, p in zip(addr.tolist(), proc.tolist()):
            first.setdefault(a // page_bytes, p // cluster_size)
        page, home = first_touch_homes(addr, proc, cfg)
        assert page.tolist() == [a // page_bytes for a in addr.tolist()]
        assert home.tolist() == [first[pg] for pg in page.tolist()]


class TestNumaRealTraces:
    @pytest.mark.parametrize("app", sorted(ALL_APPS))
    def test_one_round_mask_serves_every_round(self, app):
        """Every page's first touch falls in the first round, so the
        local mask of two back-to-back rounds is the one-round mask
        twice: ``simulate`` computes it once per program."""
        prog = build_app(app, n=8)
        session = CompileSession()
        # Two and four clusters: every app but vpenta then homes some
        # page away from some processor that touches it.
        for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                       Scheme.COMP_DECOMP_DATA):
            for nprocs in (8, 16):
                machine = scaled_dash(nprocs, scale=64)
                spmd = session.compile(prog, scheme, nprocs)
                _, traces = program_traces(spmd, machine.numa.page_bytes)
                addr = np.concatenate([t.addr for t in traces])
                proc = np.concatenate([t.proc for t in traces])
                one = local_miss_mask(addr, proc, machine.numa)
                two = local_miss_mask(np.tile(addr, 2), np.tile(proc, 2),
                                      machine.numa)
                assert np.array_equal(two, np.tile(one, 2)), (
                    scheme.value, nprocs)


class TestCostParams:
    def test_barrier_scales_with_procs(self):
        p = CostParams()
        assert p.barrier_cost(1) == 0.0
        assert p.barrier_cost(32) > p.barrier_cost(2)

    def test_per_proc_cycles(self):
        p = CostParams(cpu_per_access=2.0, l1_hit=1.0, local_miss=30.0,
                       remote_miss=100.0, upgrade=50.0)
        proc = np.array([0, 0, 1, 1])
        hit = np.array([True, False, False, True])
        mloc = np.array([False, True, False, False])
        mrem = np.array([False, False, True, False])
        upg = np.array([False, False, False, True])
        out = per_proc_cycles(proc, hit, mloc, mrem, 2, p, upgrade=upg)
        assert out[0] == 2 * 2 + 1 + 30
        assert out[1] == 2 * 2 + 1 + 100 + 50

    def test_upgrades_free_on_uniprocessor(self):
        p = CostParams()
        proc = np.zeros(2, dtype=int)
        hit = np.ones(2, dtype=bool)
        z = np.zeros(2, dtype=bool)
        upg = np.ones(2, dtype=bool)
        a = per_proc_cycles(proc, hit, z, z, 1, p, upgrade=upg)
        b = per_proc_cycles(proc, hit, z, z, 1, p)
        assert np.allclose(a, b)


class TestPhaseTime:
    def test_barrier_phase(self):
        p = CostParams()
        cycles = np.array([100.0, 300.0])
        pc = phase_time("n", cycles, "barrier", barriers=2, pipelined=False,
                        seq_steps=1, nprocs=2, params=p)
        assert pc.compute_max == 300.0
        assert pc.sync == 2 * p.barrier_cost(2)
        assert pc.time == pc.compute_max + pc.sync

    def test_local_phase_no_sync(self):
        p = CostParams()
        pc = phase_time("n", np.array([50.0]), "none", 1, False, 1, 4, p)
        assert pc.sync == 0.0

    def test_neighbor(self):
        p = CostParams()
        pc = phase_time("n", np.array([50.0]), "neighbor", 1, False, 1, 4, p)
        assert pc.sync == p.neighbor_sync

    def test_uniprocessor_no_sync(self):
        p = CostParams()
        pc = phase_time("n", np.array([50.0]), "barrier", 5, False, 1, 1, p)
        assert pc.sync == 0.0

    def test_pipeline_fill_and_tiles(self):
        p = CostParams(lock_cost=10.0)
        compute = 1000.0
        pc = phase_time("n", np.array([compute]), "pipeline", 1, True,
                        seq_steps=100, nprocs=8, params=p)
        assert pc.sync > 0
        # the optimal tiling beats both extremes
        one_tile = (8 - 1) * compute / 1 + 1 * 10.0
        max_tiles = (8 - 1) * compute / 100 + 100 * 10.0
        assert pc.sync <= one_tile + 1e-9
        assert pc.sync <= max_tiles + 1e-9

    def test_pipeline_capped_by_seq_steps(self):
        p = CostParams(lock_cost=0.001)
        pc = phase_time("n", np.array([1000.0]), "pipeline", 1, True,
                        seq_steps=4, nprocs=8, params=p)
        # tiles cannot exceed seq_steps=4
        assert pc.sync >= (8 - 1) * 1000.0 / 4


class TestDashConfigs:
    def test_full_size(self):
        m = dash_machine(32)
        assert m.cache.size_bytes == 64 * 1024
        assert m.cache.line_bytes == 16
        assert m.numa.page_bytes == 4096
        assert m.numa.cluster_size == 4

    def test_scaled_keeps_line(self):
        m = scaled_dash(8, scale=16)
        assert m.cache.line_bytes == 16
        assert m.cache.size_bytes == 4096

    def test_page_override(self):
        m = scaled_dash(8, scale=16, page_bytes=1024)
        assert m.numa.page_bytes == 1024

    def test_with_procs(self):
        m = dash_machine(32).with_procs(8)
        assert m.nprocs == 8
        assert m.cache.size_bytes == 64 * 1024

    def test_floor_guard(self):
        m = scaled_dash(4, scale=10**9)
        assert m.cache.size_bytes >= m.cache.line_bytes * 16
