"""The benchmark's workloads: their op lists, what an op calls, and how
its output is checked.

An op is the sequence of calls one user action triggers: build a
program, compile it, then emit code or simulate it.  A workload is a
fixed op list; the runner permutes it with the run's seed and hands
each op to :func:`run_op`.  Every layer function is looked up through
its module at call time, so the wrappers of ``layers.py`` see each call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

apps = importlib.import_module("repro.apps")
cache = importlib.import_module("repro.machine.cache")
dash = importlib.import_module("repro.machine.dash")
sim = importlib.import_module("repro.machine.simulate")
session = importlib.import_module("repro.pipeline.session")
emit_optimized = importlib.import_module("repro.codegen.emit_optimized")
emit_c = importlib.import_module("repro.codegen.emit_c")
spmd = importlib.import_module("repro.codegen.spmd")
hpf = importlib.import_module("repro.decomp.hpf")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SCHEMES = {
    "base": spmd.Scheme.BASE,
    "comp": spmd.Scheme.COMP_DECOMP,
    "data": spmd.Scheme.COMP_DECOMP_DATA,
}

# Table 1's decomposition strings, as benchmarks/test_table1_summary.py
# asserts them.  They also hold at each app's default size for P=8, 32.
TABLE1 = {
    "vpenta": {"F": "(*, BLOCK, *)", "A": "(*, BLOCK)"},
    "lu": {"A": "(*, CYCLIC)"},
    "stencil5": {"A": "(BLOCK, BLOCK)"},
    "adi": {"X": "(*, BLOCK)"},
    "erlebacher": {"DUX": "(*, *, BLOCK)", "DUY": "(*, *, BLOCK)",
                   "DUZ": "(*, BLOCK, *)"},
    "swm": {"P": "(BLOCK, BLOCK)"},
    "tomcatv": {"AA": "(BLOCK, *)"},
}

# The figure configurations of the multi-nest Table 1 programs: build
# and machine kwargs of CONFIGS in benchmarks/test_table1_summary.py.
FIGURE_APPS = (
    ("vpenta", dict(n=64, time_steps=2), dict(scale=4, word_bytes=8)),
    ("stencil5", dict(n=96, time_steps=4),
     dict(scale=32, word_bytes=4, page_bytes=512)),
    ("adi", dict(n=80, time_steps=4), dict(scale=16, word_bytes=8)),
    ("erlebacher", dict(n=20, time_steps=2), dict(scale=16, word_bytes=8)),
    ("swm", dict(n=96, time_steps=3),
     dict(scale=32, word_bytes=4, page_bytes=512)),
    ("tomcatv", dict(n=64, time_steps=4), dict(scale=16, word_bytes=8)),
)
SWEEP_PROCS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class Op:
    """One user action.  ``kind`` is ``simulate`` (fresh program and
    session), ``sweep`` (the round's shared program and session of the
    app, decomposition pinned at the sweep's largest P), ``emit``
    (compile, then emit address-optimized and C code) or ``diagnose``
    (simulate with the profile's detail and locality reports)."""

    id: str
    kind: str
    app: str
    scheme: str
    nprocs: int
    build: Tuple[Tuple[str, int], ...] = ()
    machine: Tuple[Tuple[str, int], ...] = ()
    assoc: int = 1


def _op(kind, app, scheme, nprocs, build, machine=None, assoc=1, id=None):
    return Op(
        id=id or f"{app}/{scheme}/P{nprocs}", kind=kind, app=app,
        scheme=scheme, nprocs=nprocs, build=tuple(sorted(build.items())),
        machine=tuple(sorted((machine or {}).items())), assoc=assoc,
    )


def lu_cliff_ops() -> List[Op]:
    """Fig. 6's 31-vs-32 processor conflict cliff, at N=128."""
    return [
        _op("simulate", "lu", scheme, p, dict(n=128),
            dict(scale=16, word_bytes=8))
        for scheme in ("comp", "data") for p in (31, 32)
    ]


def figure_sweep_ops() -> List[Op]:
    """Each figure app swept as speedup_curve does: BASE on one
    processor, then every scheme at every processor count."""
    ops = []
    for app, build, machine in FIGURE_APPS:
        ops.append(_op("sweep", app, "base", 1, build, machine,
                       id=f"{app}/seq"))
        ops += [_op("sweep", app, scheme, p, build, machine)
                for scheme in SCHEMES for p in SWEEP_PROCS]
    return ops


def compile_cold_ops() -> List[Op]:
    """Every app at its default size, compiled cold and emitted."""
    return [
        _op("emit", app, scheme, p, {})
        for app in apps.ALL_APPS for scheme in SCHEMES for p in (8, 32)
    ]


def diagnose_ops() -> List[Op]:
    """The ``repro profile`` path: detail and locality reports."""
    ops = [_op("diagnose", app, "data", 8, dict(n=64), dict(scale=16))
           for app in ("simple", "stencil5", "swm", "tomcatv", "vpenta")]
    ops.append(_op("diagnose", "adi", "comp", 8, dict(n=64), dict(scale=16)))
    ops.append(_op("diagnose", "lu", "data", 16, dict(n=48), dict(scale=16)))
    ops.append(_op("diagnose", "lu", "comp", 16, dict(n=48), dict(scale=16),
                   assoc=2, id="lu/comp/P16/2way"))
    return ops


WORKLOADS = {
    "lu-cliff": lu_cliff_ops,
    "figure-sweep": figure_sweep_ops,
    "compile-cold": compile_cold_ops,
    "diagnose": diagnose_ops,
}

# Layers each workload runs: in the traced run each of these metrics
# must count at least one call.
_COMPILE = ("pipeline.compile", "analysis.restructure",
            "analysis.dependence", "decomp.decompose", "datatrans.layout",
            "codegen.spmd", "apps.build")
_SIMULATE = ("machine.simulate", "machine.trace", "machine.classify",
             "machine.numa", "machine.cost")
LAYERS_RUN = {
    "lu-cliff": _COMPILE + _SIMULATE,
    "figure-sweep": _COMPILE + _SIMULATE,
    "compile-cold": _COMPILE + ("codegen.addropt", "codegen.emit_c"),
    "diagnose": _COMPILE + _SIMULATE + ("machine.locality",
                                        "machine.assoc_lru"),
}


class Round:
    """What one pass over the op list shares: the sessions it opened
    and, for ``sweep`` ops, each app's program and session."""

    def __init__(self):
        self.sessions = []
        self.shared: Dict[str, tuple] = {}

    def new_session(self):
        s = session.CompileSession()
        self.sessions.append(s)
        return s

    def pass_counts(self) -> Tuple[int, int]:
        """Pass executions and cache hits over every session."""
        runs = hits = 0
        for s in self.sessions:
            st = s.stats()
            runs += sum(st["runs"].values())
            hits += sum(st["hits"].values())
        return runs, hits


def _machine(op: Op, prog):
    kw = dict(op.machine)
    if "word_bytes" not in kw:  # as `repro profile` picks it
        kw["word_bytes"] = min(d.element_size for d in prog.arrays.values())
    m = dash.scaled_dash(op.nprocs, **kw)
    if op.assoc != 1:
        m = replace(m, cache=cache.CacheConfig(
            m.cache.size_bytes, m.cache.line_bytes, op.assoc))
    return m


def run_op(op: Op, rnd: Round):
    """Make the op's calls; return what they produced."""
    if op.kind == "sweep":
        if op.app not in rnd.shared:
            rnd.shared[op.app] = (apps.build_app(op.app, **dict(op.build)),
                                  rnd.new_session())
        prog, sess = rnd.shared[op.app]
    else:
        prog = apps.build_app(op.app, **dict(op.build))
        sess = rnd.new_session()
    pin = None
    if op.kind == "sweep" and op.scheme != "base":
        pin = max(SWEEP_PROCS)  # one decomposition for the whole sweep
    compiled = sess.compile(prog, SCHEMES[op.scheme], op.nprocs,
                            decomp_nprocs=pin)
    if op.kind == "emit":
        return (compiled,
                emit_optimized.emit_optimized_program(compiled),
                emit_c.emit_c_program(compiled))
    diag = op.kind == "diagnose"
    return sim.simulate(compiled, _machine(op, prog), detail=diag,
                        locality=diag)


def digest(obj) -> str:
    """SHA-256 of a string, or of a JSON-ready object's canonical JSON."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(op: Op, produced) -> dict:
    """The JSON-ready output of an op that the checks compare."""
    if op.kind == "emit":
        compiled, optimized, c_code = produced
        out = {"code_sha256": digest(optimized + "\0" + c_code),
               "code_bytes": len(optimized.encode()) + len(c_code.encode())}
        if op.scheme != "base" and op.app in TABLE1:
            d = compiled.decomposition
            out["hpf"] = {
                arr: hpf.distribute_string(d.data_for(arr), d.foldings)
                for arr in TABLE1[op.app]
            }
        return out
    res = produced
    out = {"total_time": res.total_time, "n_accesses": res.n_accesses,
           "misses": dict(res.miss_breakdown)}
    if op.kind == "diagnose":
        out["locality_sha256"] = digest(res.locality)
        out["detail_sha256"] = digest(
            [res.array_breakdown, res.numa, res.conflict_sets])
    return out


def load_expected() -> Dict[str, Dict[str, dict]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(op: Op, out: dict, expected: Dict[str, dict]) -> Optional[str]:
    """Why the op's output is wrong, or None."""
    want = expected.get(op.id)
    if want is None:
        return "no recorded reference output"
    if out != want:
        keys = sorted(k for k in set(out) | set(want)
                      if out.get(k) != want.get(k))
        return f"differs from the recorded output in {', '.join(keys)}"
    if "hpf" in out and out["hpf"] != TABLE1[op.app]:
        return f"decomposition {out['hpf']} is not Table 1's"
    return None


# Fig. 6's shape on lu-cliff: the cliff for comp, none for data.
CLIFF_MIN = 1.2   # comp: time at P=32 over time at P=31 is above this
FLAT_MAX = 1.25   # data: time at P=32 over time at P=31 is below this


def cliff_ratio(outs: Dict[str, dict], scheme: str) -> Optional[float]:
    try:
        return (outs[f"lu/{scheme}/P32"]["total_time"]
                / outs[f"lu/{scheme}/P31"]["total_time"])
    except KeyError:  # an op of the pair failed and has no output
        return None


def shape_errors(outs: Dict[str, dict]) -> Dict[str, str]:
    """Op id -> why the lu-cliff round breaks the paper's shape."""
    errors = {}
    comp, data = cliff_ratio(outs, "comp"), cliff_ratio(outs, "data")
    if comp is not None and not comp > CLIFF_MIN:
        for p in (31, 32):
            errors[f"lu/comp/P{p}"] = f"comp P32/P31 = {comp:.3f}, no cliff"
    if data is not None and not data < FLAT_MAX:
        for p in (31, 32):
            errors[f"lu/data/P{p}"] = f"data P32/P31 = {data:.3f}, a cliff"
    return errors
