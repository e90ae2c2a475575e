"""Ablation — cache associativity vs. the data transformation
(Section 1.1: "This problem exists even if the caches are
set-associative, given that existing caches usually only have a small
degree of associativity").

LU's 32-processor pathology puts a processor's cyclic columns AND the
current pivot column into the same cache sets.  A 2-way cache absorbs
part of the conflict; the data transformation removes it outright, with
no hardware help.  This ablation compares the three.
"""

from dataclasses import replace

from _common import save_experiment
from repro.apps import lu
from repro.codegen.spmd import Scheme
from repro.compiler import compile_program
from repro.machine import scaled_dash
from repro.machine.cache import CacheConfig
from repro.machine.simulate import simulate

N = 32  # results/ablation_assoc.txt is recorded at this size
P = 24  # cache/column = 2KB/256B = 8 columns, and 8 | 24: the cliff


def _machine(assoc):
    m = scaled_dash(P, scale=32, word_bytes=8)
    return replace(
        m,
        cache=CacheConfig(
            size_bytes=m.cache.size_bytes,
            line_bytes=m.cache.line_bytes,
            assoc=assoc,
        ),
    )


def test_ablation_associativity(benchmark):
    def run():
        prog = lu.build(n=N)
        cd = compile_program(prog, Scheme.COMP_DECOMP, P)
        cdd = compile_program(prog, Scheme.COMP_DECOMP_DATA, P)
        out = {
            "cd direct-mapped": simulate(cd, _machine(1)),
            "cd 2-way": simulate(cd, _machine(2)),
            "cdd direct-mapped": simulate(cdd, _machine(1)),
        }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"LU N={N}, P={P}: conflict misses vs associativity"]
    for label, res in out.items():
        lines.append(
            f"  {label:20s} time={res.total_time:.3e} "
            f"replacement={res.miss_breakdown['replacement']}"
        )
    text = "\n".join(lines)
    print("\n" + text)
    save_experiment("ablation_assoc", text)

    t_cd1 = out["cd direct-mapped"].total_time
    t_cd2 = out["cd 2-way"].total_time
    t_cdd = out["cdd direct-mapped"].total_time
    r_cd1 = out["cd direct-mapped"].miss_breakdown["replacement"]
    r_cdd = out["cdd direct-mapped"].miss_breakdown["replacement"]
    # associativity helps the scattered layout...
    assert t_cd2 <= t_cd1
    # ...but the restructured layout beats the scattered one even on the
    # direct-mapped cache, with far fewer conflict misses.
    assert t_cdd <= t_cd1
    assert r_cdd < r_cd1
