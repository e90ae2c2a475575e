"""Fourier–Motzkin elimination on integer rows, exact over the rationals.

The dependence test projects each reference pair's system (subscript
equations, loop bounds) once onto the pair's distance variables with
:meth:`LinearSystem.project` and answers every level from that
projection with :func:`bounds`.  Feasibility and objective bounds are
the same elimination with nothing, or one objective column, kept.

A row is a tuple of ints ``(c_0, ..., c_{n-1}, k)`` over a fixed column
order, meaning ``sum c_i*x_i + k <= 0`` (or ``== 0``).  Each combined
row is divided by the gcd of *all* its entries, ``k`` included, which
changes no solution.  Rounding ``k`` after dividing only the
coefficients (integer tightening) is never done, so every answer is
exact over the rationals, not the integers: after the dependence
test's per-equation GCD pretest, a pair with rational but no integer
solutions still reads as a dependence.

Equalities are removed by integer pivoting.  Each Fourier–Motzkin step,
in the given column order, combines every upper/lower pair of rows with
positive multipliers, drops rows left with no variables (or reports the
contradiction) and keeps only the tightest ``k`` per coefficient vector.
Systems are tiny (at most ~10 variables for a pair of 4-deep nests).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[int, ...]
Bounds = Tuple[Optional[Fraction], Optional[Fraction]]


def _combine(a: int, u: Row, b: int, v: Row) -> Row:
    """``a*u + b*v``, divided by the gcd of all its entries."""
    if a == b == 1:
        row = tuple(map(add, u, v))
    else:
        row = tuple([a * x + b * y for x, y in zip(u, v)])
    g = gcd(*row)
    return row if g <= 1 else tuple([x // g for x in row])


def _tighten(rows: Iterable[Row]) -> Optional[List[Row]]:
    """Drop constant rows and keep the tightest ``k`` per coefficient
    vector; None when a constant row reads ``k <= 0`` with ``k > 0``."""
    best: Dict[Row, Row] = {}
    for row in rows:
        c = row[:-1]
        if any(c):
            old = best.get(c)
            if old is None or old[-1] < row[-1]:
                best[c] = row
        elif row[-1] > 0:
            return None
    return list(best.values())


def _eliminate(
    equalities: Sequence[Row], inequalities: Sequence[Row],
    drop: Iterable[int],
) -> Optional[List[Row]]:
    """Project ``{equalities == 0, inequalities <= 0}`` onto the columns
    not in ``drop``.

    Returns the projection as inequality rows over the same columns
    (zero in every dropped one), or None when the system is empty.
    """
    drop = list(drop)
    eqs = list(equalities)
    ineqs = list(inequalities)
    while eqs:
        e = eqs.pop()
        p = next((i for i in drop if e[i]), None)
        if p is None:
            if any(e[:-1]):  # over kept columns only: two inequalities
                ineqs.append(e)
                ineqs.append(tuple([-x for x in e]))
            elif e[-1]:
                return None
            continue
        drop.remove(p)
        a = e[p]
        if a < 0:
            a, e = -a, tuple([-x for x in e])
        eqs = [_combine(a, r, -r[p], e) if r[p] else r for r in eqs]
        ineqs = [_combine(a, r, -r[p], e) if r[p] else r for r in ineqs]
    if not drop:
        return _tighten(ineqs)
    rows = ineqs
    for i in drop:
        upper, lower, rest = [], [], []
        for r in rows:
            x = r[i]
            (upper if x > 0 else lower if x < 0 else rest).append(r)
        rows = _tighten(rest + [_combine(-lo[i], u, u[i], lo)
                                for u in upper for lo in lower])
        if rows is None:
            return None
    return rows


def bounds(inequalities: Sequence[Row], col: int) -> Optional[Bounds]:
    """Exact (min, max) of column ``col`` over ``{inequalities <= 0}``.

    None when the system is empty; otherwise a pair of Fractions, with
    None for an unbounded direction.
    """
    n = len(inequalities[0]) - 1 if inequalities else 0
    rows = inequalities
    if n > 1:
        rows = _eliminate((), rows, [j for j in range(n) if j != col])
        if rows is None:
            return None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for row in rows:  # a*x + k <= 0
        a, k = row[col], row[-1]
        if a:
            bound = Fraction(-k, a)
            if a > 0:
                hi = bound if hi is None else min(hi, bound)
            else:
                lo = bound if lo is None else max(lo, bound)
        elif k > 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


class LinearSystem:
    """A conjunction of affine equalities and <=-inequalities over named
    variables, with integer coefficients.

    Constraints are stored as (coeffs, const) meaning
    ``sum(coeffs[v] * v) + const <= 0`` (or ``== 0`` for equalities).
    """

    def __init__(self) -> None:
        self.inequalities: List[Tuple[Dict[str, int], int]] = []
        self.equalities: List[Tuple[Dict[str, int], int]] = []

    # -- construction -------------------------------------------------------

    def add_le(self, coeffs: Dict[str, int], const: int) -> None:
        """Add ``sum coeffs*v + const <= 0``."""
        self.inequalities.append(({v: x for v, x in coeffs.items() if x},
                                  const))

    def add_ge(self, coeffs: Dict[str, int], const: int) -> None:
        """Add ``sum coeffs*v + const >= 0``."""
        self.add_le({v: -x for v, x in coeffs.items()}, -const)

    def add_eq(self, coeffs: Dict[str, int], const: int) -> None:
        """Add ``sum coeffs*v + const == 0``."""
        self.equalities.append(({v: x for v, x in coeffs.items() if x},
                                const))

    def copy(self) -> "LinearSystem":
        out = LinearSystem()
        out.inequalities = list(self.inequalities)
        out.equalities = list(self.equalities)
        return out

    def variables(self) -> List[str]:
        vs = set()
        for c, _ in self.inequalities + self.equalities:
            vs.update(c)
        return sorted(vs)

    # -- solving ---------------------------------------------------------------

    def project(self, keep: Sequence[str]) -> Optional[List[Row]]:
        """Exact projection onto the variables ``keep``.

        Returns inequality rows over ``keep`` in that order (constant
        last), or None when the system is empty.
        """
        names: Dict[str, None] = {}
        for c, _ in self.equalities + self.inequalities:
            names.update(dict.fromkeys(c))
        others = [v for v in names if v not in keep]
        index = {v: i for i, v in enumerate(others + list(keep))}
        zero = [0] * len(index)

        def row(coeffs: Dict[str, int], const: int) -> Row:
            r = zero + [const]
            for v, x in coeffs.items():
                r[index[v]] = x
            return tuple(r)

        m = len(others)
        rows = _eliminate([row(*c) for c in self.equalities],
                         [row(*c) for c in self.inequalities], range(m))
        return None if rows is None else [r[m:] for r in rows]

    def feasible(self) -> bool:
        """Rational feasibility of the full system."""
        return self.project(()) is not None

    def objective_bounds(
        self, coeffs: Dict[str, int], const: int = 0
    ) -> Optional[Bounds]:
        """Exact (min, max) of an affine objective over the solution set.

        Returns None when the system is infeasible; otherwise a pair
        whose entries are Fractions or None for unbounded directions.
        """
        objective = self.copy()
        z = object()  # a column no caller can name
        objective.equalities.append(
            ({z: 1, **{v: -x for v, x in coeffs.items() if x}}, -const)
        )
        rows = objective.project([z])
        return None if rows is None else bounds(rows, 0)
