"""Per-layer timing for the traced run, recorded from outside the program.

Each layer's public function is replaced, in every module that looks it
up, by a wrapper that adds the inclusive time of the call and counts it.
Nothing under ``src/`` changes; :meth:`LayerTracer.uninstall` puts the
originals back.  Only the outermost call of a metric is timed, so a
function reached again from inside itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (metric, function, modules that look the function up, extra counter).
# The extra counter is (name, fn(result) -> int), added on every
# outermost call.  "Cls.meth" names a method, wrapped on its class.
LAYERS: List[Tuple[str, str, Tuple[str, ...],
                   Optional[Tuple[str, Callable]]]] = [
    ("machine.simulate", "simulate",
     ("repro.machine.simulate", "repro.machine"), None),
    ("machine.trace", "program_traces", ("repro.machine.simulate",),
     ("machine.trace_accesses",
      lambda r: sum(t.n_accesses for t in r[1]))),
    ("machine.classify", "classify_accesses", ("repro.machine.simulate",),
     ("machine.classify_accesses", lambda r: len(r.hit))),
    ("machine.numa", "local_miss_mask", ("repro.machine.simulate",), None),
    ("machine.cost", "per_proc_cycles", ("repro.machine.simulate",), None),
    ("machine.cost", "phase_time", ("repro.machine.simulate",), None),
    ("machine.locality", "collect_locality", ("repro.machine.locality",),
     None),
    ("machine.assoc_lru", "assoc_lru_hits", ("repro.machine.coherence",),
     None),
    ("pipeline.compile", "CompileSession.compile",
     ("repro.pipeline.session",), None),
    ("analysis.restructure", "expose_outer_parallelism",
     ("repro.analysis.unimodular", "repro.codegen.spmd"), None),
    ("analysis.dependence", "analyze_nest",
     ("repro.analysis.unimodular", "repro.analysis.parallelism",
      "repro.decomp.greedy"), None),
    ("decomp.decompose", "decompose_program", ("repro.pipeline.passes",),
     None),
    ("datatrans.layout", "derive_layout", ("repro.codegen.spmd",), None),
    ("datatrans.layout", "identity_transform", ("repro.codegen.spmd",),
     None),
    ("codegen.spmd", "generate_spmd", ("repro.pipeline.passes",), None),
    ("codegen.addropt", "emit_optimized_program",
     ("repro.codegen.emit_optimized", "repro.codegen"),
     ("codegen.code_bytes", lambda r: len(r.encode()))),
    ("codegen.emit_c", "emit_c_program",
     ("repro.codegen.emit_c", "repro.codegen"),
     ("codegen.code_bytes", lambda r: len(r.encode()))),
    ("apps.build", "build_app", ("repro.apps",), None),
]


def _owner_and_name(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerTracer:
    """Inclusive time by ``clock``, outermost-call counts and extra
    counters per layer metric, accumulated while installed."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.seconds: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.counts: Dict[str, int] = Counter()
        self._depth: Dict[str, int] = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every LAYERS function.  A function missing from a module
        that should look it up raises AttributeError: a rename under
        ``src/`` must break the traced run, not report zeros."""
        for metric, qualname, modules, extra in LAYERS:
            originals = {}
            for module in modules:
                owner, name = _owner_and_name(module, qualname)
                originals[module] = (owner, name, getattr(owner, name))
            funcs = {id(fn) for _, _, fn in originals.values()}
            if len(funcs) != 1:
                raise AttributeError(
                    f"{qualname} differs between {', '.join(modules)}")
            for owner, name, fn in originals.values():
                self._undo.append((owner, name, fn))
                setattr(owner, name, self._wrap(metric, fn, extra))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    def _wrap(self, metric, fn, extra):
        depth, seconds, calls, counts, clock = (
            self._depth, self.seconds, self.calls, self.counts, self.clock)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if depth[metric]:
                return fn(*args, **kwargs)
            depth[metric] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[metric] += clock() - t0
                calls[metric] += 1
                depth[metric] -= 1
            if extra is not None:
                counts[extra[0]] += extra[1](result)
            return result

        return timed

    def snapshot(self) -> Dict[str, float]:
        """Flat totals: ``<metric>_s``, ``<metric>_calls`` and every
        extra counter, for every metric in LAYERS."""
        out: Dict[str, float] = {}
        for metric, _, _, extra in LAYERS:
            out[f"{metric}_s"] = self.seconds[metric]
            out[f"{metric}_calls"] = self.calls[metric]
            if extra is not None:
                out[extra[0]] = self.counts[extra[0]]
        return out


def layer_metrics(delta: Dict[str, float], pass_runs: int, pass_hits: int,
                  scale: float) -> Dict[str, float]:
    """The per-layer metrics of one pass over the op list, from the
    tracer's totals over that pass and the sessions' pass counts.  Every
    time is multiplied by ``scale``, the pass's calibration scale."""
    d = {k: v * scale if k.endswith("_s") else v for k, v in delta.items()}
    accesses = d["machine.classify_accesses"]
    nested = sum(d[f"machine.{k}_s"] for k in
                 ("trace", "classify", "numa", "cost", "locality"))
    lookups = pass_runs + pass_hits
    return {
        "machine.classify_s": d["machine.classify_s"],
        "machine.classify_accesses": accesses,
        "machine.classify_ns_per_access": (
            1e9 * d["machine.classify_s"] / accesses if accesses else 0.0),
        "machine.trace_s": d["machine.trace_s"],
        "machine.trace_accesses": d["machine.trace_accesses"],
        "machine.numa_s": d["machine.numa_s"],
        "machine.cost_s": d["machine.cost_s"],
        "machine.cost_calls": d["machine.cost_calls"],
        "machine.simulate_s": d["machine.simulate_s"],
        "machine.simulate_self_s": d["machine.simulate_s"] - nested,
        "machine.locality_s": d["machine.locality_s"],
        "machine.assoc_lru_s": d["machine.assoc_lru_s"],
        "pipeline.compile_s": d["pipeline.compile_s"],
        "pipeline.pass_runs": pass_runs,
        "pipeline.pass_hits": pass_hits,
        "pipeline.hit_ratio": pass_hits / lookups if lookups else 0.0,
        "analysis.restructure_s": d["analysis.restructure_s"],
        "analysis.restructure_calls": d["analysis.restructure_calls"],
        "analysis.dependence_s": d["analysis.dependence_s"],
        "analysis.dependence_calls": d["analysis.dependence_calls"],
        "decomp.decompose_s": d["decomp.decompose_s"],
        "decomp.decompose_calls": d["decomp.decompose_calls"],
        "datatrans.layout_s": d["datatrans.layout_s"],
        "codegen.spmd_s": d["codegen.spmd_s"],
        "codegen.addropt_s": d["codegen.addropt_s"],
        "codegen.emit_c_s": d["codegen.emit_c_s"],
        "codegen.code_bytes": d["codegen.code_bytes"],
        "apps.build_s": d["apps.build_s"],
    }


# Metrics that are counts: they must repeat exactly from pass to pass.
COUNT_METRICS = (
    "machine.classify_accesses", "machine.trace_accesses",
    "machine.cost_calls", "pipeline.pass_runs", "pipeline.pass_hits",
    "analysis.restructure_calls", "analysis.dependence_calls",
    "decomp.decompose_calls", "codegen.code_bytes",
)

# Rows compared for "largest layer": each layer's own row, leaving out
# the rows that contain others (simulate, compile, restructure).
LEAF_ROWS = (
    "machine.classify_s", "machine.trace_s", "machine.numa_s",
    "machine.cost_s", "machine.simulate_self_s", "machine.locality_s",
    "machine.assoc_lru_s", "analysis.dependence_s", "decomp.decompose_s",
    "datatrans.layout_s", "codegen.spmd_s", "codegen.addropt_s",
    "codegen.emit_c_s", "apps.build_s",
)
