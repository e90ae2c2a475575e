"""Loops, statements and loop nests.

A :class:`LoopNest` is a perfectly nested band of DO loops (step 1,
inclusive bounds, bounds affine in outer indices and parameters)
containing a straight-line body of array assignments.  This matches the
program fragments the paper's algorithms operate on; imperfect nests in
the benchmarks are expressed as sequences of perfect nests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.ir.arrays import ArrayDecl, ArrayRef
from repro.ir.expr import AffineExpr


@dataclass(frozen=True)
class Loop:
    """One DO loop: ``for var in [lower, upper]`` with unit step.

    Bounds are affine in enclosing loop variables and parameters.
    """

    var: str
    lower: AffineExpr
    upper: AffineExpr

    @staticmethod
    def make(var: str, lower, upper) -> "Loop":
        return Loop(var, AffineExpr.coerce(lower), AffineExpr.coerce(upper))

    def __repr__(self) -> str:
        return f"DO {self.var} = {self.lower!r}, {self.upper!r}"


@dataclass(frozen=True)
class Statement:
    """A single array assignment ``write = compute(*reads)``.

    ``compute`` maps the read values (floats, in ``reads`` order) to the
    written value; when omitted the executor stores the sum of the reads,
    which is enough for address-trace purposes.
    """

    write: ArrayRef
    reads: Tuple[ArrayRef, ...]
    compute: Optional[Callable[..., float]] = None
    label: str = ""
    depth: Optional[int] = None
    """Nesting depth of this statement: it executes inside the first
    ``depth`` loops only (``None`` = full nest depth).  This models
    imperfect nests such as LU, where the scaling statement sits one
    level above the update statement."""

    def all_refs(self) -> Tuple[ArrayRef, ...]:
        return (self.write,) + self.reads

    def __repr__(self) -> str:
        rhs = ", ".join(repr(r) for r in self.reads)
        return f"{self.write!r} = f({rhs})"


@dataclass(eq=False)
class LoopNest:
    """A perfect nest of loops (outermost first) over a statement body.

    ``frequency`` weights the nest's execution count relative to other
    nests (e.g. a surrounding sequential time loop); the greedy
    decomposition algorithm processes high-frequency nests first and the
    cost model multiplies simulated time by it.

    ``carries_dependence`` per level is filled in by the dependence
    analysis; ``parallel_levels`` by the parallelizer.
    """

    name: str
    loops: List[Loop]
    body: List[Statement]
    frequency: int = 1
    # Analysis results (populated by repro.analysis / repro.compiler):
    parallel_levels: Tuple[int, ...] = ()
    pipeline_levels: Tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> Tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    def arrays_written(self) -> List[ArrayDecl]:
        seen: Dict[str, ArrayDecl] = {}
        for st in self.body:
            seen.setdefault(st.write.array.name, st.write.array)
        return list(seen.values())

    def arrays_read(self) -> List[ArrayDecl]:
        seen: Dict[str, ArrayDecl] = {}
        for st in self.body:
            for r in st.reads:
                seen.setdefault(r.array.name, r.array)
        return list(seen.values())

    def arrays_accessed(self) -> List[ArrayDecl]:
        seen: Dict[str, ArrayDecl] = {}
        for st in self.body:
            for r in st.all_refs():
                seen.setdefault(r.array.name, r.array)
        return list(seen.values())

    def refs_to(self, array_name: str) -> List[Tuple[ArrayRef, bool]]:
        """All references to an array as (ref, is_write) pairs."""
        out = []
        for st in self.body:
            if st.write.array.name == array_name:
                out.append((st.write, True))
            for r in st.reads:
                if r.array.name == array_name:
                    out.append((r, False))
        return out

    # -- iteration-space helpers -------------------------------------------

    def iterate(self, params: Mapping[str, int]) -> Iterator[Dict[str, int]]:
        """Yield environments binding every loop var (plus params), in
        sequential program order.  Bounds may reference outer indices.
        """
        env = dict(params)

        def rec(level: int):
            if level == self.depth:
                yield dict(env)
                return
            loop = self.loops[level]
            lo = loop.lower.eval(env)
            hi = loop.upper.eval(env)
            for v in range(lo, hi + 1):
                env[loop.var] = v
                yield from rec(level + 1)
            env.pop(loop.var, None)

        yield from rec(0)

    def count_iterations(self, params: Mapping[str, int]) -> int:
        """Number of iterations of the full nest (exact, handles
        triangular bounds by per-level summation)."""
        env = dict(params)

        def rec(level: int) -> int:
            if level == self.depth:
                return 1
            loop = self.loops[level]
            lo = loop.lower.eval(env)
            hi = loop.upper.eval(env)
            # Fast path: inner bounds independent of this variable.
            inner_vars = {l.var for l in self.loops[level + 1 :]}
            deps = any(
                l.lower.coeff(loop.var) or l.upper.coeff(loop.var)
                for l in self.loops[level + 1 :]
            )
            if hi < lo:
                return 0
            if not deps:
                env[loop.var] = lo
                inner = rec(level + 1)
                env.pop(loop.var, None)
                return (hi - lo + 1) * inner
            total = 0
            for v in range(lo, hi + 1):
                env[loop.var] = v
                total += rec(level + 1)
            env.pop(loop.var, None)
            return total

        return rec(0)

    def numeric_bounds(
        self, params: Mapping[str, int]
    ) -> List[Tuple[int, int]]:
        """Conservative numeric [lo, hi] interval per loop level, by
        interval propagation through the affine bounds."""
        intervals: Dict[str, Tuple[int, int]] = {}
        out: List[Tuple[int, int]] = []

        def expr_range(e: AffineExpr) -> Tuple[int, int]:
            lo = hi = e.const
            for v, c in e.coeffs:
                if v in params:
                    lo += c * params[v]
                    hi += c * params[v]
                elif v in intervals:
                    vlo, vhi = intervals[v]
                    if c >= 0:
                        lo += c * vlo
                        hi += c * vhi
                    else:
                        lo += c * vhi
                        hi += c * vlo
                else:
                    raise ValueError(f"unbound variable {v} in bound {e!r}")
            return lo, hi

        for loop in self.loops:
            llo, _ = expr_range(loop.lower)
            _, uhi = expr_range(loop.upper)
            intervals[loop.var] = (llo, uhi)
            out.append((llo, uhi))
        return out

    def __repr__(self) -> str:
        return f"LoopNest({self.name}, depth={self.depth}, stmts={len(self.body)})"
