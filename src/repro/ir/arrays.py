"""Array declarations and affine array references.

An :class:`ArrayDecl` describes a (concrete-size) n-dimensional array
with FORTRAN column-major storage by default — dimension 0 varies
fastest in memory, matching the paper's convention.

An :class:`ArrayRef` is an access ``A(e_0, ..., e_{n-1})`` whose index
expressions are affine in the enclosing loop indices and the symbolic
parameters.  Its :class:`AccessFunction` view extracts the ``F`` matrix
and offset vector used throughout the decomposition framework
(reference = ``F @ i + f``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.ir.expr import AffineExpr

Matrix = List[List[int]]
Vector = List[int]


@dataclass(frozen=True)
class ArrayDecl:
    """Declaration of an n-dimensional array.

    ``dims`` are extents per dimension (0-based indexing, per the
    paper).  ``element_size`` is in bytes (8 for DOUBLE PRECISION,
    4 for REAL).  Column-major: the linearized address of element
    (i0, i1, ..., ik) is ``i0 + d0*(i1 + d1*(i2 + ...))``.
    """

    name: str
    dims: Tuple[int, ...]
    element_size: int = 8

    def __post_init__(self):
        if not self.dims:
            raise ValueError("arrays must have at least one dimension")
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"array {self.name} has non-positive extent")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        """Total number of elements."""
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def nbytes(self) -> int:
        return self.size * self.element_size

    def linearize(self, index: Sequence[int]) -> int:
        """Column-major element offset of a concrete index tuple."""
        if len(index) != self.rank:
            raise ValueError(f"{self.name}: index rank mismatch")
        addr = 0
        for i, d in zip(reversed(index), reversed(self.dims)):
            if not (0 <= i < d):
                raise IndexError(
                    f"{self.name}: index {tuple(index)} out of bounds {self.dims}"
                )
            addr = addr * d + i
        return addr

    def delinearize(self, addr: int) -> Tuple[int, ...]:
        """Inverse of :meth:`linearize`."""
        if not (0 <= addr < self.size):
            raise IndexError(f"{self.name}: address {addr} out of range")
        out = []
        for d in self.dims:
            out.append(addr % d)
            addr //= d
        return tuple(out)

    def __call__(self, *exprs) -> "ArrayRef":
        """Sugar for building references: ``A(i, j + 1)``."""
        return ArrayRef(
            self, tuple(AffineExpr.coerce(e) for e in exprs)
        )

    def __repr__(self) -> str:
        dims = ",".join(str(d) for d in self.dims)
        return f"{self.name}({dims})"


@dataclass(frozen=True)
class AccessFunction:
    """The affine access function of a reference w.r.t. a loop nest.

    ``matrix`` is the d-by-n integer matrix ``F`` (d = array rank,
    n = nest depth) and ``offset`` holds the remaining affine parts
    (constants and symbolic parameters) per array dimension, so the
    reference is ``F @ i + offset``.
    """

    matrix: Tuple[Tuple[int, ...], ...]
    offset: Tuple[AffineExpr, ...]

    def as_lists(self) -> Tuple[Matrix, List[AffineExpr]]:
        return [list(r) for r in self.matrix], list(self.offset)

    @property
    def rank(self) -> int:
        """Rank of the linear part F."""
        from repro.util.intlinalg import integer_rank

        return integer_rank([list(r) for r in self.matrix])

    def constant_offset(self) -> Vector:
        """Offset vector as plain ints (raises if symbolic params remain)."""
        return [e.constant_value() for e in self.offset]


@dataclass(frozen=True)
class ArrayRef:
    """An affine reference ``array(index_exprs...)``."""

    array: ArrayDecl
    index_exprs: Tuple[AffineExpr, ...]

    def __post_init__(self):
        if len(self.index_exprs) != self.array.rank:
            raise ValueError(
                f"{self.array.name}: reference has {len(self.index_exprs)} "
                f"subscripts but array rank is {self.array.rank}"
            )

    def access_function(self, loop_vars: Sequence[str]) -> AccessFunction:
        """Split each subscript into loop-variable part and residual offset."""
        mat = []
        off = []
        loop_set = list(loop_vars)
        for e in self.index_exprs:
            mat.append(tuple(e.coeff(v) for v in loop_set))
            residual = AffineExpr(
                {v: c for v, c in e.coeffs if v not in loop_set}, e.const
            )
            off.append(residual)
        return AccessFunction(tuple(mat), tuple(off))

    def index_at(self, env) -> Tuple[int, ...]:
        """Concrete index tuple under a variable binding."""
        return tuple(e.eval(env) for e in self.index_exprs)

    def address_at(self, env) -> int:
        """Concrete column-major element offset under a binding."""
        return self.array.linearize(self.index_at(env))

    def __repr__(self) -> str:
        subs = ", ".join(repr(e) for e in self.index_exprs)
        return f"{self.array.name}({subs})"
