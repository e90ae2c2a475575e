"""Layout algebra.

A :class:`Layout` describes the memory organization of a (possibly
restructured) array as an ordered list of :class:`DimAtom` dimensions,
fastest-varying first (FORTRAN column-major, the paper's convention).

Each atom derives its index from one *original* array dimension by the
closed-form ``(x // div) % mod`` (``mod None`` = no wraparound), which
is exactly the family generated by repeated strip-mining.  Permutations
reorder the atom list.  This gives:

* identity layout:      atoms ``[(x0), (x1), ...]``
* BLOCK restructuring:  ``x -> (x % b, x // b)``
* CYCLIC:               ``x -> (x // P, x % P)`` with ``x % P`` outermost
* BLOCK-CYCLIC:         ``x -> (x % b, x // (b*P), (x // b) % P)``

The linearized address of the Figure 2/3 tables falls straight out of
:meth:`Layout.linearize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class DimAtom:
    """One dimension of a transformed array.

    The atom's index value for original coordinates ``x`` is
    ``(x[src] // div) % mod`` (or ``x[src] // div`` when ``mod`` is
    None); ``extent`` is the dimension's size in the new array.
    """

    src: int
    extent: int
    div: int = 1
    mod: Optional[int] = None

    def __post_init__(self):
        if self.extent <= 0 or self.div <= 0:
            raise ValueError("atom extent and divisor must be positive")
        if self.mod is not None and self.mod <= 0:
            raise ValueError("atom modulus must be positive")

    def value(self, x: int) -> int:
        v = x // self.div
        if self.mod is not None:
            v %= self.mod
        return v

    def value_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`value` for address-trace generation."""
        v = x // self.div
        if self.mod is not None:
            v = v % self.mod
        return v

    def __repr__(self) -> str:
        inner = f"x{self.src}"
        if self.div != 1:
            inner = f"{inner}/{self.div}"
        if self.mod is not None:
            inner = f"({inner})%{self.mod}"
        return f"<{inner}:{self.extent}>"


@dataclass(frozen=True)
class Layout:
    """Memory layout of an array: atoms fastest-varying first."""

    orig_dims: Tuple[int, ...]
    atoms: Tuple[DimAtom, ...]

    @staticmethod
    def identity(dims: Sequence[int]) -> "Layout":
        """The original column-major layout."""
        return Layout(
            orig_dims=tuple(int(d) for d in dims),
            atoms=tuple(
                DimAtom(src=k, extent=int(d)) for k, d in enumerate(dims)
            ),
        )

    # -- shape ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.atoms)

    @property
    def dims(self) -> Tuple[int, ...]:
        """Extents of the transformed array (fastest first)."""
        return tuple(a.extent for a in self.atoms)

    @property
    def size(self) -> int:
        """Total element count of the transformed array (may exceed the
        original due to strip padding, but by less than one strip per
        strip-mined dimension — Section 4.3)."""
        n = 1
        for a in self.atoms:
            n *= a.extent
        return n

    def strides(self) -> Tuple[int, ...]:
        """Element stride of each atom (column-major)."""
        out = []
        s = 1
        for a in self.atoms:
            out.append(s)
            s *= a.extent
        return tuple(out)

    # -- mapping -----------------------------------------------------------

    def map_index(self, index: Sequence[int]) -> Tuple[int, ...]:
        """New (transformed) indices of an original element."""
        if len(index) != len(self.orig_dims):
            raise ValueError("index rank mismatch")
        for x, d in zip(index, self.orig_dims):
            if not (0 <= x < d):
                raise IndexError(f"index {tuple(index)} out of {self.orig_dims}")
        return tuple(a.value(index[a.src]) for a in self.atoms)

    def linearize(self, index: Sequence[int]) -> int:
        """Linearized (column-major) address of an original element in
        the transformed array."""
        addr = 0
        stride = 1
        for a in self.atoms:
            addr += a.value(index[a.src]) * stride
            stride *= a.extent
        return addr

    def linearize_vec(self, index_cols: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized linearize: ``index_cols[k]`` holds the k-th original
        coordinate of many elements."""
        addr = None
        stride = 1
        for a in self.atoms:
            term = a.value_vec(np.asarray(index_cols[a.src])) * stride
            addr = term if addr is None else addr + term
            stride *= a.extent
        return addr

    def unmap_index(self, new_index: Sequence[int]) -> Tuple[int, ...]:
        """Original coordinates of a transformed element.

        Requires the atoms of each source dimension to form a complete
        mixed-radix decomposition (always true for layouts produced by
        the primitives); raises otherwise.
        """
        if len(new_index) != self.rank:
            raise ValueError("index rank mismatch")
        out = [0] * len(self.orig_dims)
        for k in range(len(self.orig_dims)):
            # Atoms with mod == 1 carry no information (value always 0)
            # and are excluded from the chain.
            pairs = [
                (a, v)
                for a, v in zip(self.atoms, new_index)
                if a.src == k and a.mod != 1
            ]
            pairs.sort(key=lambda t: t[0].div)
            expect = 1
            for a, v in pairs:
                if a.div != expect:
                    raise ValueError(
                        f"dimension {k}: atoms do not form a mixed-radix chain"
                    )
                expect = a.div * (a.mod if a.mod is not None else a.extent)
            out[k] = sum(a.div * v for a, v in pairs)
        return tuple(out)

    def is_bijective(self) -> bool:
        """True when every original element has a distinct address (the
        data-transform legality invariant)."""
        try:
            for k, d in enumerate(self.orig_dims):
                chain = sorted(
                    (a for a in self.atoms if a.src == k and a.mod != 1),
                    key=lambda a: a.div,
                )
                expect = 1
                covered = 1
                for a in chain:
                    if a.div != expect:
                        return False
                    m = a.mod if a.mod is not None else a.extent
                    expect = a.div * m
                    covered *= m
                if covered < d:
                    return False
            return True
        except Exception:  # pragma: no cover - defensive
            return False

    def __repr__(self) -> str:
        return f"Layout{list(self.atoms)!r}"
