"""Whole-program container.

A :class:`Program` is an ordered sequence of loop nests over a common
set of array declarations, with concrete parameter values.  An optional
``time_steps`` models an enclosing sequential time loop around the whole
nest sequence (as in the paper's Figure 1): analyses treat it as a
frequency multiplier and the simulator replays the nest sequence that
many times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.ir.arrays import ArrayDecl
from repro.ir.loops import LoopNest


@dataclass
class Program:
    """A program: arrays + ordered loop nests + parameter bindings."""

    name: str
    arrays: Dict[str, ArrayDecl] = field(default_factory=dict)
    nests: List[LoopNest] = field(default_factory=list)
    params: Dict[str, int] = field(default_factory=dict)
    time_steps: int = 1

    def validate(self) -> None:
        """Check structural sanity; raises ValueError on problems."""
        names = set()
        for nest in self.nests:
            if nest.name in names:
                raise ValueError(f"duplicate nest name {nest.name}")
            names.add(nest.name)
            if len(set(nest.loop_vars)) != nest.depth:
                raise ValueError(f"{nest.name}: duplicate loop variable")
            for k, st in enumerate(nest.body):
                where = f"{nest.name}: statement {k}" + (
                    f" ({st.label})" if st.label else "")
                depth = nest.depth if st.depth is None else st.depth
                if not 0 <= depth <= nest.depth:
                    raise ValueError(
                        f"{where} has depth {depth}, outside 0..{nest.depth}"
                    )
                # A statement of depth d sits inside the first d loops only.
                visible = set(self.params) | set(nest.loop_vars[:depth])
                for ref in st.all_refs():
                    decl = self.arrays.get(ref.array.name)
                    if decl is None:
                        raise ValueError(
                            f"{nest.name}: reference to undeclared array "
                            f"{ref.array.name}"
                        )
                    if decl is not ref.array:
                        raise ValueError(
                            f"{nest.name}: reference to shadowed declaration "
                            f"of {ref.array.name}"
                        )
                    for e in ref.index_exprs:
                        for v in e.variables:
                            if v not in visible:
                                raise ValueError(
                                    f"{where}: unbound variable {v} "
                                    f"in {ref!r} at depth {depth}"
                                )
            # Bounds must be evaluable from params + outer loop vars.
            outer: set = set(self.params)
            for loop in nest.loops:
                for e in (loop.lower, loop.upper):
                    for v in e.variables:
                        if v not in outer:
                            raise ValueError(
                                f"{nest.name}: bound of {loop.var} uses "
                                f"{v} which is not an outer index/param"
                            )
                outer.add(loop.var)

    def nest(self, name: str) -> LoopNest:
        for n in self.nests:
            if n.name == name:
                return n
        raise KeyError(name)

    def total_iterations(self) -> int:
        """Total statement-iterations over one time step."""
        return sum(
            n.count_iterations(self.params) * len(n.body) * n.frequency
            for n in self.nests
        )

    def __repr__(self) -> str:
        return (
            f"Program({self.name}, arrays={sorted(self.arrays)}, "
            f"nests={[n.name for n in self.nests]})"
        )
