"""Sequential semantic executor.

Interprets a :class:`Program` over NumPy storage, honouring statement
nesting depth (imperfect nests) and the enclosing time loop.  This is
the semantic ground truth used by the tests: the SPMD partitioning and
the data transformations must never change the values a program
computes, only where they live and who computes them.

The interpreter is deliberately simple (one Python-level dispatch per
statement instance); apps provide vectorized golden references for the
larger validation runs, per the NumPy optimization guidance.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.ir.loops import LoopNest
from repro.ir.program import Program


def default_init(prog: Program, seed: int = 12345) -> Dict[str, np.ndarray]:
    """Deterministic nonzero initial contents for every array (values in
    [1, 2) so divisions in apps like LU stay well-conditioned)."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, decl in sorted(prog.arrays.items()):
        out[name] = 1.0 + rng.random(decl.dims, dtype=np.float64)
    return out


def run_nest(
    nest: LoopNest, storage: Mapping[str, np.ndarray], params: Mapping[str, int]
) -> None:
    """Run one nest once, in sequential program order, updating
    ``storage`` in place: at each level the statements of that depth in
    body order, then the next loop."""
    depth = nest.depth
    stmts_by_level: Dict[int, list] = {}
    for st in nest.body:
        d = st.depth if st.depth is not None else depth
        stmts_by_level.setdefault(d, []).append(st)
    env = dict(params)

    def exec_level(level: int) -> None:
        for st in stmts_by_level.get(level, ()):
            vals = [
                storage[r.array.name][r.index_at(env)] for r in st.reads
            ]
            if st.compute is not None:
                result = st.compute(*vals)
            else:
                result = float(sum(vals))
            storage[st.write.array.name][st.write.index_at(env)] = result
        if level == depth:
            return
        loop = nest.loops[level]
        lo = loop.lower.eval(env)
        hi = loop.upper.eval(env)
        for v in range(lo, hi + 1):
            env[loop.var] = v
            exec_level(level + 1)
        env.pop(loop.var, None)

    exec_level(0)


def execute_program(
    prog: Program,
    init: Optional[Mapping[str, np.ndarray]] = None,
    time_steps: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Run the program sequentially; returns the final array contents."""
    storage: Dict[str, np.ndarray] = {}
    base = init if init is not None else default_init(prog)
    for name, decl in prog.arrays.items():
        if name in base:
            arr = np.array(base[name], dtype=np.float64)
            if arr.shape != decl.dims:
                raise ValueError(
                    f"{name}: init shape {arr.shape} != dims {decl.dims}"
                )
        else:
            arr = np.zeros(decl.dims, dtype=np.float64)
        storage[name] = arr
    steps = time_steps if time_steps is not None else prog.time_steps
    for _ in range(max(1, steps)):
        for nest in prog.nests:
            for _ in range(max(1, nest.frequency)):
                run_nest(nest, storage, prog.params)
    return storage
