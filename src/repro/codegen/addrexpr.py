"""Address-expression IR.

Addresses of transformed arrays are sums of strided terms
``stride * ((e // div) % mod)`` where ``e`` is an affine expression in
the loop indices.  This tiny expression IR represents exactly that
shape, evaluates it, renders it as C, and counts the division/modulo
operations — the quantity the paper's Section 4.3 optimizations drive
to (almost) zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.datatrans.layout import Layout
from repro.ir.expr import AffineExpr


class AExpr:
    """Base class for address expressions."""

    def eval(self, env: Mapping[str, int]) -> int:
        raise NotImplementedError

    def to_c(self) -> str:
        raise NotImplementedError

    def children(self) -> Tuple["AExpr", ...]:
        return ()


@dataclass(frozen=True)
class AConst(AExpr):
    value: int

    def eval(self, env):
        return self.value

    def to_c(self):
        return str(self.value)


@dataclass(frozen=True)
class AVar(AExpr):
    name: str

    def eval(self, env):
        return env[self.name]

    def to_c(self):
        return self.name


@dataclass(frozen=True)
class AAffine(AExpr):
    """An affine combination of loop variables (no div/mod inside)."""

    expr: AffineExpr

    def eval(self, env):
        return self.expr.eval(env)

    def to_c(self):
        return repr(self.expr)


@dataclass(frozen=True)
class AAdd(AExpr):
    terms: Tuple[AExpr, ...]

    def eval(self, env):
        return sum(t.eval(env) for t in self.terms)

    def to_c(self):
        return " + ".join(t.to_c() for t in self.terms)

    def children(self):
        return self.terms


@dataclass(frozen=True)
class AScale(AExpr):
    factor: int
    operand: AExpr

    def eval(self, env):
        return self.factor * self.operand.eval(env)

    def to_c(self):
        if self.factor == 1:
            return self.operand.to_c()
        return f"{self.factor}*({self.operand.to_c()})"

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class ADiv(AExpr):
    """Floor division by a positive constant (indices are non-negative,
    so C truncation agrees with floor — Section 4.1.1)."""

    operand: AExpr
    divisor: int

    def eval(self, env):
        return self.operand.eval(env) // self.divisor

    def to_c(self):
        return f"(({self.operand.to_c()}) / {self.divisor})"

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class AMod(AExpr):
    operand: AExpr
    modulus: int

    def eval(self, env):
        return self.operand.eval(env) % self.modulus

    def to_c(self):
        return f"(({self.operand.to_c()}) % {self.modulus})"

    def children(self):
        return (self.operand,)


# ---------------------------------------------------------------------------

def build_address_expr(
    layout: Layout, index_exprs: Sequence[AffineExpr]
) -> AExpr:
    """Address expression of a reference under a transformed layout.

    ``index_exprs[k]`` is the (affine) subscript for original dimension
    k; the result sums ``stride * ((subscript // div) % mod)`` over the
    layout's atoms.
    """
    terms: List[AExpr] = []
    stride = 1
    for atom in layout.atoms:
        e: AExpr = AAffine(index_exprs[atom.src])
        if atom.div != 1:
            e = ADiv(e, atom.div)
        if atom.mod is not None:
            e = AMod(e, atom.mod)
        terms.append(AScale(stride, e) if stride != 1 else e)
        stride *= atom.extent
    if not terms:
        return AConst(0)
    if len(terms) == 1:
        return terms[0]
    return AAdd(tuple(terms))


def count_divmod(expr: AExpr) -> Tuple[int, int]:
    """Static count of (div, mod) nodes in an expression tree."""
    divs = mods = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ADiv):
            divs += 1
        elif isinstance(node, AMod):
            mods += 1
        stack.extend(node.children())
    return divs, mods


def divmod_nodes(expr: AExpr) -> List[AExpr]:
    """All ADiv/AMod nodes of an expression tree."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (ADiv, AMod)):
            out.append(node)
        stack.extend(node.children())
    return out
