"""The Section 4.3 address optimizations.

Transformed-array subscripts contain ``div`` and ``mod``; executed
naively on every access they would swamp the cache gains.  The paper
describes three remedies, all implemented here as an analysis over one
innermost loop:

1. **strip-invariant elimination** — inside a single strip-mined
   partition the quotient ``e div b`` is constant and ``e mod b`` is
   linear, so both hoist out of the loop (the ``idiv = myid`` /
   ``imod = imod + 1`` rewrite of the paper's SPMD example);
2. **peeling** — when the loop's range crosses a small number of strip
   boundaries, the boundary-crossing iterations are peeled off and the
   remainder optimized as in (1);
3. **strength reduction** — otherwise the mod operand is tracked
   incrementally, performing a subtract-and-carry only when the running
   value exceeds the modulus (and sharing the carry with the matching
   division), like the paper's ``x = x + 4; IF (x .ge. 64) ...`` rewrite.

The analysis reports per-iteration and per-loop-entry division/modulo
counts before and after optimization; the ablation benchmark
(EXPERIMENTS.md) sums these into dynamic counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

from repro import obs
from repro.obs import provenance
from repro.codegen.addrexpr import (
    AAffine,
    ADiv,
    AExpr,
    count_divmod,
    divmod_nodes,
)
from repro.ir.expr import AffineExpr


@dataclass
class NodePlan:
    """Optimization decision for one div/mod node."""

    node: AExpr
    strategy: str  # 'invariant' | 'peel' | 'strength' | 'none'
    per_iter: float  # amortized div/mod executed per iteration
    per_entry: int  # div/mod executed once per loop entry
    detail: str = ""


@dataclass
class AddressCostReport:
    """Cost summary for one reference's address in one innermost loop."""

    naive_per_iter: int
    plans: List[NodePlan] = field(default_factory=list)

    @property
    def optimized_per_iter(self) -> float:
        return sum(p.per_iter for p in self.plans)

    @property
    def per_entry(self) -> int:
        return sum(p.per_entry for p in self.plans)

    def dynamic_counts(self, trips: int, entries: int) -> Tuple[float, float]:
        """(naive, optimized) dynamic div+mod counts for ``entries``
        executions of a loop with ``trips`` iterations each."""
        naive = float(self.naive_per_iter) * trips * entries
        opt = self.optimized_per_iter * trips * entries + self.per_entry * entries
        return naive, opt


def _expr_interval(
    e: AffineExpr, var: str, var_range: Tuple[int, int],
    other_ranges: Mapping[str, Tuple[int, int]],
) -> Tuple[int, int]:
    """Interval of an affine expression over the loop var and the
    (conservative) ranges of the other variables."""
    lo = hi = e.const
    ranges = dict(other_ranges)
    ranges[var] = var_range
    for v, c in e.coeffs:
        if v not in ranges:
            raise ValueError(f"no range for variable {v}")
        vlo, vhi = ranges[v]
        if c >= 0:
            lo += c * vlo
            hi += c * vhi
        else:
            lo += c * vhi
            hi += c * vlo
    return lo, hi


def optimize_ref_address(
    expr: AExpr,
    var: str,
    var_range: Tuple[int, int],
    other_ranges: Optional[Mapping[str, Tuple[int, int]]] = None,
    peel_limit: int = 2,
) -> AddressCostReport:
    """Plan the Section 4.3 optimizations for one address expression in
    the innermost loop over ``var`` with inclusive ``var_range``.

    ``other_ranges`` bounds the loop-invariant variables (outer loop
    indices for the current processor, parameters already substituted).
    """
    other_ranges = dict(other_ranges or {})
    divs, mods = count_divmod(expr)
    report = AddressCostReport(naive_per_iter=divs + mods)
    trips = max(1, var_range[1] - var_range[0] + 1)

    for node in divmod_nodes(expr):
        operand = node.operand
        if not isinstance(operand, AAffine):
            report.plans.append(
                NodePlan(node, "none", per_iter=1.0, per_entry=0,
                         detail="non-affine operand")
            )
            continue
        e = operand.expr
        c = node.divisor if isinstance(node, ADiv) else node.modulus
        coeff = e.coeff(var)
        if coeff == 0:
            # Loop-invariant operand: hoist entirely.
            report.plans.append(
                NodePlan(node, "invariant", per_iter=0.0, per_entry=1,
                         detail="operand invariant in loop")
            )
            continue
        lo, hi = _expr_interval(e, var, var_range, other_ranges)
        q_lo, q_hi = lo // c, hi // c
        boundaries = q_hi - q_lo
        if boundaries == 0:
            # The whole range sits inside one strip: div is constant,
            # mod is linear (e - c*q), both computed once per entry.
            report.plans.append(
                NodePlan(node, "invariant", per_iter=0.0, per_entry=1,
                         detail=f"range [{lo},{hi}] within one strip of {c}")
            )
        elif boundaries <= peel_limit:
            report.plans.append(
                NodePlan(node, "peel", per_iter=0.0,
                         per_entry=1 + boundaries,
                         detail=f"peel {boundaries} boundary crossing(s)")
            )
        else:
            # Strength reduction: one div/mod at entry, then an
            # increment with a carry roughly every c/|coeff| iterations
            # (a subtraction, not a division — the *division* count
            # amortizes to zero; we charge the carry bookkeeping as
            # 1/period to stay conservative).
            period = max(1, c // max(1, abs(coeff)))
            report.plans.append(
                NodePlan(node, "strength", per_iter=1.0 / period
                         if period < trips else 0.0,
                         per_entry=1,
                         detail=f"strength-reduced, carry period {period}")
            )
    if provenance.active():
        _AFTER = {
            "invariant": "hoisted to loop preamble",
            "peel": "boundary iterations peeled, remainder hoisted",
            "strength": "running value with subtract-and-carry",
            "none": "unchanged",
        }
        for i, p in enumerate(report.plans):
            before = getattr(p.node, "to_c", lambda: repr(p.node))()
            provenance.record(
                "addropt.plan", stage="addropt",
                subject=f"{var}[{i}] {before}",
                chosen=p.strategy,
                alternatives=["invariant", "peel", "strength", "none"],
                reason=p.detail,
                before=before, after=_AFTER.get(p.strategy, p.strategy),
                per_iter=p.per_iter, per_entry=p.per_entry,
                ops_saved_per_iter=1.0 - p.per_iter,
            )
    if obs.enabled():
        # "invariant" covers the paper's div/mod hoisting; "peel" and
        # "strength" the other two Section 4.3 remedies.
        for p in report.plans:
            obs.inc(f"addropt.{p.strategy}")
        obs.inc("addropt.divmod_nodes", len(report.plans))
    return report
