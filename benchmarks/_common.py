"""Shared helpers for the experiment benchmarks.

Every file in this directory regenerates one table or figure from the
paper's Section 6 (see DESIGN.md's experiment index and EXPERIMENTS.md
for the recorded paper-vs-measured comparison).  The speedup series are
printed AND saved under ``results/`` because pytest captures stdout.

Problem sizes are scaled down from the paper's to keep the figure suite
fast (the paper-size runs are tracked in ROADMAP.md); each benchmark
documents its scaling and preserves the ratios that drive the
memory-system effects being measured (array/cache size, line/element
size, page/partition size).
"""

import pytest

from repro.codegen.spmd import Scheme
from repro.machine import scaled_dash
from repro.machine.simulate import speedup_curve
from repro.pipeline import CompileSession
from repro.report import format_speedup_table, save_experiment

ALL_SCHEMES = [Scheme.BASE, Scheme.COMP_DECOMP, Scheme.COMP_DECOMP_DATA]
PROCS = [1, 2, 4, 8, 16, 32]

BASE = Scheme.BASE.value
CD = Scheme.COMP_DECOMP.value
CDD = Scheme.COMP_DECOMP_DATA.value

# One pipeline session for the whole benchmark run: experiments that
# sweep the same program at several machine scales recompile nothing.
SESSION = CompileSession()


def run_speedups(prog, machine_kwargs, procs=PROCS, schemes=None):
    """Compile + simulate a program across schemes and processor counts."""
    factory = lambda p: scaled_dash(p, **machine_kwargs)
    return speedup_curve(prog, schemes or ALL_SCHEMES, factory, procs,
                         session=SESSION)


def record(name, title, curves):
    series_payload = {
        scheme: [[p, s] for p, s in srs]
        for scheme, srs in curves.items()
    }
    text = format_speedup_table(curves, title=title)
    print("\n" + text)
    save_experiment(
        name, text,
        metrics={"title": title, "series": series_payload},
    )
    return text


def series(curves, scheme):
    return dict(curves[scheme])
