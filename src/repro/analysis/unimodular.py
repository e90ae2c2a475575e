"""Unimodular restructuring to expose outermost parallel loops.

Following Wolf & Lam (and the paper's Section 3.2 "first step"), a
unimodular transform ``T`` makes the leading loops of a nest parallel
when its leading rows annihilate every dependence distance vector.
We therefore:

1. collect an *obstruction set* spanning all realizable dependence
   distances (constant vectors directly; variable components
   conservatively contribute unit vectors),
2. take the integer nullspace of that set — these rows become the
   outermost loops and are doall by construction,
3. complete to a unimodular matrix and reorder/negate the completion
   rows until every dependence is carried with a positive leading
   component (legality).

The paper's benchmarks only ever need loop *permutations* out of this
machinery (e.g. vpenta's interchange), so when the resulting matrix is
not a pure permutation — or when triangular bounds would be violated by
reordering — we conservatively keep the original nest.  Imperfect nests
(statements at differing depths) are likewise left in place, matching
the BASE compiler's per-loop behaviour described in Section 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.obs import provenance
from repro.analysis.dependence import Dependence, analyze_nest
from repro.analysis.parallelism import parallel_levels
from repro.ir.loops import LoopNest
from repro.util.intlinalg import (
    identity,
    integer_nullspace,
    is_unimodular,
    unimodular_completion,
)


@dataclass
class UnimodularResult:
    """Outcome of the restructuring pass."""

    nest: LoopNest
    transform: List[List[int]]  # rows = new loops in terms of old indices
    parallel: Tuple[int, ...]  # parallel levels of the (new) nest
    deps: List[Dependence]  # dependences of the (new) nest
    # Provenance payload describing the keep/permute decision; stored on
    # the (memoized) result so the record is re-emitted identically on
    # every lookup, not only on the first derivation.
    decision: Optional[dict] = None

    @property
    def outer_parallel_count(self) -> int:
        """Number of leading parallel levels."""
        n = 0
        for k in range(len(self.transform)):
            if k in self.parallel:
                n += 1
            else:
                break
        return n


def _obstruction_rows(
    deps: Sequence[Dependence], depth: int
) -> List[List[int]]:
    """Rows spanning (a superset of) all realizable carried distances."""
    rows: List[List[int]] = []
    for d in deps:
        if d.level < 0:
            continue
        base = [0] * depth
        had_var = False
        for j, comp in enumerate(d.distance):
            if j >= depth:
                break
            if comp is None:
                had_var = True
                unit = [0] * depth
                unit[j] = 1
                rows.append(unit)
            else:
                base[j] = comp
        if any(base):
            rows.append(base)
        elif not had_var:
            # zero distance at a carried level cannot happen, but guard
            continue
    return rows


def _interval_dot(
    row: Sequence[int], dmin: Sequence[Optional[int]],
    dmax: Sequence[Optional[int]],
) -> Tuple[Optional[int], Optional[int]]:
    """Interval of row . d given per-component bounds (None = unbounded)."""
    lo: Optional[int] = 0
    hi: Optional[int] = 0
    for c, l, h in zip(row, dmin, dmax):
        if c == 0:
            continue
        if c > 0:
            tlo = None if l is None else c * l
            thi = None if h is None else c * h
        else:
            tlo = None if h is None else c * h
            thi = None if l is None else c * l
        lo = None if (lo is None or tlo is None) else lo + tlo
        hi = None if (hi is None or thi is None) else hi + thi
    return lo, hi


def _legal_tail_order(
    tail: List[List[int]], deps: Sequence[Dependence], depth: int
) -> Optional[List[List[int]]]:
    """Search orderings/orientations of the completion rows so that every
    carried dependence has a lexicographically positive image."""
    carried_deps = [d for d in deps if d.level >= 0]
    if not carried_deps:
        return tail

    def check(order: Sequence[Tuple[List[int], int]]) -> bool:
        remaining = list(carried_deps)
        for row, sign in order:
            srow = [sign * c for c in row]
            next_remaining = []
            for d in remaining:
                dmin = list(d.dmin)[:depth] + [0] * (depth - len(d.dmin))
                dmax = list(d.dmax)[:depth] + [0] * (depth - len(d.dmax))
                lo, hi = _interval_dot(srow, dmin, dmax)
                if lo is None or lo < 0:
                    return False
                if lo >= 1:
                    continue  # definitely carried here
                next_remaining.append(d)
            remaining = next_remaining
        # Dependences never definitely carried must be provably zero under
        # every tail row (loop-independent after transform) — conservative:
        for d in remaining:
            for row, sign in order:
                srow = [sign * c for c in row]
                dmin = list(d.dmin)[:depth] + [0] * (depth - len(d.dmin))
                dmax = list(d.dmax)[:depth] + [0] * (depth - len(d.dmax))
                lo, hi = _interval_dot(srow, dmin, dmax)
                if not (lo == 0 and hi == 0):
                    return False
        return True

    m = len(tail)
    for perm in permutations(range(m)):
        for signs in range(1 << m):
            order = [
                (tail[perm[k]], 1 if not (signs >> k) & 1 else -1)
                for k in range(m)
            ]
            if check(order):
                return [[s * c for c in row] for row, s in order]
    return None


def _is_permutation(mat: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """If ``mat`` is a permutation matrix, return the permutation
    (new level -> old level); else None."""
    n = len(mat)
    perm = []
    seen = set()
    for row in mat:
        ones = [j for j, c in enumerate(row) if c == 1]
        if len(ones) != 1 or any(c not in (0, 1) for c in row):
            return None
        j = ones[0]
        if j in seen:
            return None
        seen.add(j)
        perm.append(j)
    return perm if len(perm) == n else None


def _permute_nest(nest: LoopNest, perm: Sequence[int]) -> Optional[LoopNest]:
    """Reorder the nest's loops by ``perm`` (new -> old).  Returns None
    when a loop bound would reference a variable that is no longer
    outside it."""
    new_loops = [nest.loops[p] for p in perm]
    outer: set = set()
    for loop in new_loops:
        for e in (loop.lower, loop.upper):
            for v in e.variables:
                if v in {l.var for l in nest.loops} and v not in outer:
                    return None
        outer.add(loop.var)
    return LoopNest(
        name=nest.name,
        loops=new_loops,
        body=list(nest.body),
        frequency=nest.frequency,
    )


def _order_band_for_locality(
    head: List[List[int]], nest: LoopNest
) -> List[List[int]]:
    """Order the parallel band so loops with more loop-invariant
    references sit innermost (adjacent to the reuse they enable).

    This is a light stand-in for the uniprocessor locality pass the
    paper assumes follows ([34]): e.g. vpenta's RHS sweeps reuse the
    2-D coefficient column across the three planes, so the plane loop
    belongs inside the column loop.  Only pure unit-vector bands are
    reordered; the ordering is deterministic, which also makes the
    whole restructuring idempotent.
    """
    units = []
    for row in head:
        nz = [k for k, c in enumerate(row) if c != 0]
        if len(nz) != 1 or abs(row[nz[0]]) != 1:
            return head  # non-permutation band: leave as computed
        units.append(nz[0])

    def invariance(level: int) -> int:
        var = nest.loops[level].var
        score = 0
        for st in nest.body:
            for ref in st.all_refs():
                if all(e.coeff(var) == 0 for e in ref.index_exprs):
                    score += 1
        return score

    order = sorted(range(len(head)), key=lambda i: (invariance(units[i]),
                                                    units[i]))
    return [[abs(c) for c in head[p]] for p in order]


def expose_outer_parallelism(
    nest: LoopNest, params: Mapping[str, int]
) -> UnimodularResult:
    """Restructure ``nest`` to move its parallel loops outermost.

    Falls back to the original nest (identity transform) whenever the
    transform would not be a legal loop permutation.  Memoized on the
    nest object (nests are immutable once built).
    """
    memo_key = tuple(sorted(params.items()))
    memo = getattr(nest, "_unimodular_cache", None)
    if memo is None:
        memo = {}
        try:
            nest._unimodular_cache = memo  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover
            pass
    if memo_key in memo:
        result = memo[memo_key]
    else:
        result = _expose_impl(nest, params)
        memo[memo_key] = result
    if result.decision:
        d = result.decision
        provenance.record(
            d["site"], stage=d["stage"], subject=d["subject"],
            chosen=d["chosen"], alternatives=d["alternatives"],
            reason=d["reason"], **d["inputs"],
        )
    return result


def _expose_impl(
    nest: LoopNest, params: Mapping[str, int]
) -> UnimodularResult:
    deps = analyze_nest(nest, params)
    depth = nest.depth
    ident = identity(depth)

    def fallback(reason: str) -> UnimodularResult:
        return UnimodularResult(
            nest=nest,
            transform=ident,
            parallel=parallel_levels(nest, deps),
            deps=deps,
            decision={
                "site": "unimodular.restructure", "stage": "unimodular",
                "subject": nest.name, "chosen": "keep",
                "alternatives": ["keep", "permute"], "reason": reason,
                "inputs": {"depth": depth, "n_deps": len(deps)},
            },
        )

    # Imperfect nests: keep in place (BASE analyzes one loop at a time).
    if any(
        (st.depth is not None and st.depth != depth) for st in nest.body
    ):
        return fallback("imperfect nest")

    obstructions = _obstruction_rows(deps, depth)
    if not obstructions:
        return fallback("already parallel")
    head = integer_nullspace(obstructions)
    if not head:
        return fallback("no communication-free direction")
    head = _order_band_for_locality(head, nest)
    try:
        full = unimodular_completion(head, depth)
    except (ValueError, AssertionError):
        return fallback("no unimodular completion")
    tail = full[len(head):]
    tail = _legal_tail_order(tail, deps, depth)
    if tail is None:
        return fallback("no legal tail order")
    transform = head + tail
    if not is_unimodular(transform):
        return fallback("transform not unimodular")
    perm = _is_permutation(transform)
    if perm is None:
        return fallback("transform not a permutation")
    if perm == list(range(depth)):
        return fallback("identity permutation")
    new_nest = _permute_nest(nest, perm)
    if new_nest is None:
        return fallback("permutation breaks triangular bounds")
    new_deps = analyze_nest(new_nest, params)
    return UnimodularResult(
        nest=new_nest,
        transform=transform,
        parallel=parallel_levels(new_nest, new_deps),
        deps=new_deps,
        decision={
            "site": "unimodular.restructure", "stage": "unimodular",
            "subject": nest.name, "chosen": f"permute{list(perm)}",
            "alternatives": ["keep", f"permute{list(perm)}"],
            "reason": "legal outermost-parallel permutation",
            "inputs": {
                "depth": depth, "n_deps": len(deps),
                "parallel_band": len(head), "transform": transform,
            },
        },
    )
