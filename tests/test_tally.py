"""``simulate``'s tally against the per-mask pricing it replaced.

``simulate`` counts each access's outcome code once, with one
``np.bincount`` per chunk round, and prices the counts.  The reference
here reads the classifier's flags and the NUMA mask instead, prices
each phase with one ``bincount`` of the processors per mask and sums
each mask, as ``simulate`` once did.  On every app's real traces the
two must agree exactly: every phase's cycles and miss classes, both
round times, the breakdown and the detail fields."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import ALL_APPS, build_app
from repro.codegen.spmd import Scheme
from repro.machine import scaled_dash
from repro.machine.cache import CacheConfig
from repro.machine.coherence import classify_accesses
from repro.machine.cost import phase_time
from repro.machine.numa import local_miss_mask
from repro.machine.simulate import simulate
from repro.machine.trace import program_traces
from repro.pipeline import CompileSession


def reference_cycles(proc, hit, miss_local, miss_remote, nprocs, params,
                     upgrade, l2_hit):
    """Cycles of each processor, one ``bincount`` per mask."""
    base = np.bincount(proc, minlength=nprocs).astype(np.float64)
    hits = np.bincount(proc[hit], minlength=nprocs).astype(np.float64)
    loc = np.bincount(proc[miss_local], minlength=nprocs).astype(np.float64)
    rem = np.bincount(proc[miss_remote], minlength=nprocs).astype(np.float64)
    out = (base * params.cpu_per_access + hits * params.l1_hit
           + loc * params.local_miss + rem * params.remote_miss)
    out += np.bincount(proc[l2_hit], minlength=nprocs) * params.l2_hit
    if nprocs > 1:
        out += np.bincount(proc[upgrade], minlength=nprocs) * params.upgrade
    return out


def reference(spmd, machine):
    """The fields of ``simulate(spmd, machine, detail=True)`` from the
    flags of the whole stream (both rounds of a time-stepped program)."""
    params, nprocs = machine.cost, spmd.nprocs
    space, traces = program_traces(spmd, machine.numa.page_bytes)
    proc, addr, write = (np.concatenate([getattr(t, a) for t in traces])
                         for a in ("proc", "addr", "write"))
    n = len(addr)
    rounds = 2 if spmd.program.time_steps > 1 else 1
    cls = classify_accesses(proc, addr, write, machine.cache,
                            word_bytes=machine.word_bytes, l2=machine.l2,
                            rounds=rounds)
    local = np.tile(local_miss_mask(addr, proc, machine.numa), rounds)
    memory = cls.miss & ~cls.l2_hit
    masks = {
        "hits": cls.hit, "cold": cls.cold, "replacement": cls.replacement,
        "true_sharing": cls.true_sharing,
        "false_sharing": cls.false_sharing, "upgrade": cls.upgrade,
        "l2_hits": cls.l2_hit, "remote": memory & ~local,
        "local_miss": memory & local,
    }
    round_times, phases = [0.0, 0.0], []
    for r in range(rounds):
        at = 0
        for phase, t in zip(spmd.phases, traces):
            # The phase's accesses in the round, and their flags.
            own = slice(at, at + t.n_accesses)
            flags = slice(r * n + own.start, r * n + own.stop)
            at = own.stop
            cycles = reference_cycles(
                proc[own], masks["hits"][flags], masks["local_miss"][flags],
                masks["remote"][flags], nprocs, params,
                masks["upgrade"][flags], masks["l2_hits"][flags])
            pc = phase_time(t.nest_name, cycles, t.sync_after, t.barriers,
                            t.pipelined, phase.seq_steps, nprocs, params)
            round_times[r] += pc.time * max(1, phase.nest.frequency)
            if r == rounds - 1:
                misses = {name: int(m[flags].sum())
                          for name, m in masks.items()}
                phases.append((cycles.tolist(),
                               {**misses, "accesses": t.n_accesses}))
    if rounds == 1:
        round_times[1] = round_times[0]
    breakdown = {name: int(m.sum()) for name, m in masks.items()
                 if name != "hits"}
    nmiss = breakdown["remote"] + breakdown["local_miss"]
    numa = {"local_misses": breakdown["local_miss"],
            "remote_misses": breakdown["remote"],
            "local_ratio": (breakdown["local_miss"] / nmiss if nmiss
                            else 1.0)}
    names = sorted(space.bases, key=lambda nm: space.bases[nm])
    owner = np.tile(np.searchsorted([space.bases[nm] for nm in names],
                                    addr, side="right") - 1, rounds)
    arrays = {}
    for j, nm in enumerate(names):
        mine = owner == j
        if mine.any():
            arrays[nm] = {**{name: int((m & mine).sum())
                             for name, m in masks.items()},
                          "accesses": int(mine.sum())}
    cache = machine.cache
    occ = np.bincount(
        (np.tile(addr, rounds)[cls.replacement] // cache.line_bytes)
        % cache.nsets, minlength=cache.nsets)
    top = np.lexsort((np.arange(len(occ)), -occ))[:8]
    conflict = {
        "nsets": cache.nsets, "replacement_misses": int(occ.sum()),
        "max_per_set": int(occ.max()), "mean_per_set": float(occ.mean()),
        "top_sets": [[int(s), int(occ[s])] for s in top if occ[s] > 0],
    }
    return (tuple(round_times), phases, breakdown, arrays, numa, conflict)


def fields(res):
    return (res.round_times,
            [(pc.per_proc_cycles.tolist(), pc.misses)
             for pc in res.phase_costs],
            res.miss_breakdown, res.array_breakdown, res.numa,
            res.conflict_sets)


def as_lists(value):
    """Dicts as lists of items, so that key order is compared too."""
    if isinstance(value, dict):
        return [(k, as_lists(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [as_lists(v) for v in value]
    return value


@pytest.mark.parametrize("app", sorted(ALL_APPS))
def test_tally_equals_per_mask_pricing(app):
    """Every app at n=8 under each scheme at P = 1, 3, 8, with the L1
    direct-mapped and 2-way, each with and without the L2, in one round
    and time-stepped."""
    prog = build_app(app, n=8)
    wb = min(d.element_size for d in prog.arrays.values())
    session = CompileSession()
    for steps in (1, 3):
        stepped = replace(prog, time_steps=steps)
        for scheme in (Scheme.BASE, Scheme.COMP_DECOMP,
                       Scheme.COMP_DECOMP_DATA):
            for nprocs in (1, 3, 8):
                spmd = session.compile(stepped, scheme, nprocs)
                dm = scaled_dash(nprocs, scale=64, word_bytes=wb)
                two_way = replace(dm, cache=CacheConfig(
                    dm.cache.size_bytes, dm.cache.line_bytes, assoc=2))
                for machine in (dm, dm.with_l2(), two_way,
                                two_way.with_l2()):
                    got = fields(simulate(spmd, machine, detail=True))
                    assert as_lists(got) == as_lists(
                        reference(spmd, machine)), (
                        steps, scheme.value, nprocs, machine.cache,
                        machine.l2)
