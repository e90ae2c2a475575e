"""Data-dependence analysis for affine loop nests.

For every pair of references to the same array (at least one a write)
the tester builds one system over the source instance ``s`` and the
distances ``d``, writing the sink's common indices ``t_j = s_j + d_j``:
subscript equations ``F1 @ s + f1 = F2 @ t + f2`` (each first put
through a GCD pretest) and both sides' loop bounds (triangular bounds
supported).  It projects the system onto ``d`` once and answers every
level from that projection: loop-independent when ``d = 0`` satisfies
it, carried at level k when it stays feasible with ``d_j = 0`` for
j < k and ``d_k >= 1``.  Each component's rational range is rounded
inward to integers, so consumers get a constant distance vector
whenever one exists and a conservative direction vector otherwise.

After the GCD pretest the test is exact over the rationals, not the
integers (see :mod:`repro.analysis.fourier_motzkin`): it never misses a
dependence, but can report one with no integer instance, whose range
may even read ``dmin > dmax``.

This is the information both the BASE parallelizer (Section 6.1) and the
decomposition phase (Section 3) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.fourier_motzkin import LinearSystem, bounds
from repro.ir.expr import AffineExpr
from repro.ir.loops import LoopNest, Statement

LOOP_INDEPENDENT = -1


@dataclass(frozen=True)
class Dependence:
    """One dependence between two statement instances of a nest.

    ``level`` is the 0-based loop level carrying the dependence, or
    ``LOOP_INDEPENDENT`` (-1).  ``dmin``/``dmax`` bound each component of
    the distance vector over the common loops (``None`` = unbounded in
    that direction).
    """

    array: str
    src_stmt: int
    dst_stmt: int
    kind: str  # 'flow' | 'anti' | 'output'
    level: int
    dmin: Tuple[Optional[int], ...]
    dmax: Tuple[Optional[int], ...]

    @property
    def distance(self) -> Tuple[Optional[int], ...]:
        """Per-component distance: the value where it is constant, else None."""
        return tuple(
            lo if (lo is not None and lo == hi) else None
            for lo, hi in zip(self.dmin, self.dmax)
        )

    def is_constant(self) -> bool:
        """True when the full distance vector is a known constant."""
        return all(v is not None for v in self.distance)

    def __repr__(self) -> str:
        def fmt(lo, hi):
            if lo is not None and lo == hi:
                return str(lo)
            l = "-inf" if lo is None else str(lo)
            h = "+inf" if hi is None else str(hi)
            return f"[{l},{h}]"

        comps = ",".join(fmt(lo, hi) for lo, hi in zip(self.dmin, self.dmax))
        lvl = "indep" if self.level == LOOP_INDEPENDENT else f"L{self.level}"
        return (
            f"Dep({self.kind} {self.array} s{self.src_stmt}->s{self.dst_stmt} "
            f"{lvl} d=({comps}))"
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _expr_linear(
    expr: AffineExpr,
    rename: Mapping[str, Sequence[str]],
    params: Mapping[str, int],
) -> Tuple[Dict[str, int], int]:
    """Split an affine expression into (coeffs over the renamed loop
    variables, constant), substituting concrete parameter values.  Each
    loop variable stands for the sum of the names it is renamed to."""
    coeffs: Dict[str, int] = {}
    const = expr.const
    for v, c in expr.coeffs:
        if v in rename:
            for name in rename[v]:
                coeffs[name] = coeffs.get(name, 0) + c
        elif v in params:
            const += c * params[v]
        else:
            raise ValueError(f"unbound variable {v} in {expr!r}")
    return coeffs, const


def _stmt_depth(stmt: Statement, nest: LoopNest) -> int:
    return stmt.depth if stmt.depth is not None else nest.depth


def _gcd_test(coeffs: Dict[str, int], const: int) -> bool:
    """True if ``sum coeffs*v + const == 0`` can have integer solutions."""
    g = gcd(*coeffs.values())
    return const % g == 0 if g else const == 0


def _add_side_bounds(
    sys: LinearSystem,
    nest: LoopNest,
    rename: Mapping[str, Sequence[str]],
    params: Mapping[str, int],
) -> None:
    """Add loop-bound constraints for one side's iteration vector (the
    first ``len(rename)`` loops of the nest)."""
    for k in range(len(rename)):
        loop = nest.loops[k]
        lc, lk = _expr_linear(loop.lower, rename, params)
        # var >= lower  ->  lower - var <= 0
        for v in rename[loop.var]:
            lc[v] = lc.get(v, 0) - 1
        sys.add_le(lc, lk)
        uc, uk = _expr_linear(loop.upper, rename, params)
        # var <= upper  ->  var - upper <= 0
        hi = {v: -c for v, c in uc.items()}
        for v in rename[loop.var]:
            hi[v] = hi.get(v, 0) + 1
        sys.add_le(hi, -uk)


# ---------------------------------------------------------------------------
# core test
# ---------------------------------------------------------------------------

def _pair_space(
    nest: LoopNest, params: Mapping[str, int], depth1: int, depth2: int,
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, Tuple[str, ...]],
           LinearSystem]:
    """Renamings and loop bounds shared by every reference pair from a
    statement of depth ``depth1`` (instance ``s``) to one of depth
    ``depth2`` (instance ``t``), whose common indices are written
    ``t_j = s_j + d_j`` so that the distances ``d_j`` are variables."""
    ncommon = min(depth1, depth2)
    rename1 = {nest.loops[k].var: (f"s{k}",) for k in range(depth1)}
    rename2 = {
        nest.loops[k].var: (f"s{k}", f"d{k}") if k < ncommon else (f"t{k}",)
        for k in range(depth2)
    }
    sys = LinearSystem()
    _add_side_bounds(sys, nest, rename1, params)
    _add_side_bounds(sys, nest, rename2, params)
    return rename1, rename2, sys


def _test_pair(space, params: Mapping[str, int], s1: int, s2: int,
               ref1, ref2, kind: str) -> List[Dependence]:
    """All dependences from (stmt s1, ref1) to (stmt s2, ref2).

    The pair's system is projected onto the distances once; every
    level is answered from that projection.
    """
    rename1, rename2, loop_bounds = space
    ncommon = min(len(rename1), len(rename2))
    # Subscript equations + GCD pretest (writing t = s + d is unimodular,
    # so it leaves each equation's coefficient gcd unchanged).
    sys = loop_bounds.copy()
    for e1, e2 in zip(ref1.index_exprs, ref2.index_exprs):
        coeffs, k1 = _expr_linear(e1, rename1, params)
        c2, k2 = _expr_linear(e2, rename2, params)
        for v, c in c2.items():
            coeffs[v] = coeffs.get(v, 0) - c
        if not _gcd_test(coeffs, k1 - k2):
            return []
        sys.add_eq(coeffs, k1 - k2)
    dist = sys.project([f"d{j}" for j in range(ncommon)])
    if dist is None:
        return []

    out: List[Dependence] = []
    levels: List[int] = list(range(ncommon))
    # Loop-independent dependences only flow forward in the body.
    if s1 < s2:
        levels.append(LOOP_INDEPENDENT)
    for level in levels:
        if level == LOOP_INDEPENDENT:
            # d = 0 must satisfy every row of the projection.
            if any(row[-1] > 0 for row in dist):
                continue
            ranges = [(0, 0)] * ncommon
        else:
            # d_0 .. d_{level-1} = 0 drops their columns; d_level >= 1.
            rows = [row[level:] for row in dist]
            rows.append((-1,) + (0,) * (ncommon - level - 1) + (1,))
            first = bounds(rows, 0)
            if first is None:
                continue
            ranges = [(0, 0)] * level + [first] + [
                bounds(rows, j) for j in range(1, ncommon - level)]
        # Distances are integers; tighten the rational bounds.
        out.append(Dependence(
            array=ref1.array.name, src_stmt=s1, dst_stmt=s2, kind=kind,
            level=level,
            dmin=tuple(None if lo is None else ceil(lo) for lo, _ in ranges),
            dmax=tuple(None if hi is None else floor(hi) for _, hi in ranges),
        ))
    return out


def analyze_nest(
    nest: LoopNest, params: Mapping[str, int]
) -> List[Dependence]:
    """All data dependences within one loop nest.

    Considers every ordered pair of references to the same array where at
    least one side writes.  Both (r1 -> r2) and (r2 -> r1) orderings are
    covered because the statement pairs are enumerated in both orders.

    Results are memoized on the nest object (nests are not mutated after
    construction), since the driver re-analyzes the same nests for every
    processor count in a sweep.
    """
    key = tuple(sorted(params.items()))
    cache = getattr(nest, "_deps_cache", None)
    if cache is not None and key in cache:
        return cache[key]
    deps: List[Dependence] = []
    spaces: Dict[Tuple[int, int], tuple] = {}
    nstmt = len(nest.body)
    for s1 in range(nstmt):
        st1 = nest.body[s1]
        refs1 = [(st1.write, True)] + [(r, False) for r in st1.reads]
        for s2 in range(nstmt):
            st2 = nest.body[s2]
            refs2 = [(st2.write, True)] + [(r, False) for r in st2.reads]
            depths = (_stmt_depth(st1, nest), _stmt_depth(st2, nest))
            for ref1, w1 in refs1:
                for ref2, w2 in refs2:
                    if not (w1 or w2) or ref1.array.name != ref2.array.name:
                        continue
                    kind = "output" if w1 and w2 else "flow" if w1 else "anti"
                    if depths not in spaces:
                        spaces[depths] = _pair_space(nest, params, *depths)
                    deps.extend(_test_pair(
                        spaces[depths], params, s1, s2, ref1, ref2, kind))
    result = _dedup(deps)
    if cache is None:
        cache = {}
        try:
            nest._deps_cache = cache  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - exotic nest subclasses
            return result
    cache[key] = result
    return result


def _dedup(deps: List[Dependence]) -> List[Dependence]:
    seen = set()
    out = []
    for d in deps:
        key = (d.array, d.src_stmt, d.dst_stmt, d.kind, d.level, d.dmin, d.dmax)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def dependence_distance_table(
    nest: LoopNest, params: Mapping[str, int]
) -> Dict[int, List[Dependence]]:
    """Dependences grouped by carried level (``-1`` = loop-independent)."""
    table: Dict[int, List[Dependence]] = {}
    for d in analyze_nest(nest, params):
        table.setdefault(d.level, []).append(d)
    return table
