"""Parallel-loop identification from dependence information.

A loop level is a *doall* (fully parallel at its position) when no
dependence is carried at that level: iterations of the loop, for fixed
outer indices, are then independent.  This is the criterion the paper's
BASE compiler uses after its per-nest unimodular restructuring, and the
starting point of the decomposition analysis.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.analysis.dependence import Dependence, analyze_nest
from repro.ir.loops import LoopNest


def parallel_levels(
    nest: LoopNest, deps: Optional[Sequence[Dependence]] = None,
    params: Optional[Mapping[str, int]] = None,
) -> Tuple[int, ...]:
    """Loop levels (0-based) that carry no dependence."""
    if deps is None:
        if params is None:
            raise ValueError("need either deps or params")
        deps = analyze_nest(nest, params)
    carried = {d.level for d in deps if d.level >= 0}
    return tuple(k for k in range(nest.depth) if k not in carried)


def outermost_parallel_level(
    nest: LoopNest, deps: Optional[Sequence[Dependence]] = None,
    params: Optional[Mapping[str, int]] = None,
) -> Optional[int]:
    """The outermost doall level, or None if every level carries a
    dependence."""
    levels = parallel_levels(nest, deps, params)
    return levels[0] if levels else None
