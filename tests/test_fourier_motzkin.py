"""Tests for the rational Fourier–Motzkin solver."""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.analysis.fourier_motzkin import LinearSystem

Coeffs = Dict[str, Fraction]


def box(sys, var, lo, hi):
    sys.add_ge({var: 1}, -lo)  # var >= lo
    sys.add_le({var: 1}, -hi)  # var <= hi


class TestFeasibility:
    def test_empty_is_feasible(self):
        assert LinearSystem().feasible()

    def test_box(self):
        s = LinearSystem()
        box(s, "x", 0, 5)
        assert s.feasible()

    def test_empty_interval(self):
        s = LinearSystem()
        box(s, "x", 5, 2)
        assert not s.feasible()

    def test_equality_consistent(self):
        s = LinearSystem()
        box(s, "x", 0, 10)
        box(s, "y", 0, 10)
        s.add_eq({"x": 1, "y": -1}, -3)  # x = y + 3
        assert s.feasible()

    def test_equality_inconsistent(self):
        s = LinearSystem()
        s.add_eq({"x": 1}, -1)  # x = 1
        s.add_eq({"x": 1}, -2)  # x = 2
        assert not s.feasible()

    def test_triangular(self):
        # 0 <= i <= 5, i+1 <= j <= 5 is feasible; i >= 5 makes it empty
        s = LinearSystem()
        box(s, "i", 0, 5)
        s.add_ge({"j": 1, "i": -1}, -1)  # j >= i+1
        s.add_le({"j": 1}, -5)
        assert s.feasible()
        s.add_ge({"i": 1}, -5)  # i >= 5 -> j >= 6 > 5
        assert not s.feasible()

    def test_transitive_contradiction(self):
        # x <= y, y <= z, z <= x - 1
        s = LinearSystem()
        s.add_le({"x": 1, "y": -1}, 0)
        s.add_le({"y": 1, "z": -1}, 0)
        s.add_le({"z": 1, "x": -1}, 1)
        assert not s.feasible()


class TestObjectiveBounds:
    def test_box_bounds(self):
        s = LinearSystem()
        box(s, "x", 2, 7)
        lo, hi = s.objective_bounds({"x": 1})
        assert lo == 2 and hi == 7

    def test_affine_objective(self):
        s = LinearSystem()
        box(s, "x", 0, 3)
        box(s, "y", 1, 2)
        lo, hi = s.objective_bounds({"x": 2, "y": -1}, 5)
        assert lo == 0 - 2 + 5
        assert hi == 6 - 1 + 5

    def test_unbounded(self):
        s = LinearSystem()
        s.add_ge({"x": 1}, 0)  # x >= 0, no upper bound
        lo, hi = s.objective_bounds({"x": 1})
        assert lo == 0
        assert hi is None

    def test_infeasible_returns_none(self):
        s = LinearSystem()
        box(s, "x", 3, 1)
        assert s.objective_bounds({"x": 1}) is None

    def test_constant_objective(self):
        s = LinearSystem()
        box(s, "x", 0, 5)
        lo, hi = s.objective_bounds({}, 4)
        assert lo == 4 and hi == 4

    def test_through_equalities(self):
        # d = j' - j with j' = j + 2
        s = LinearSystem()
        box(s, "j", 0, 9)
        box(s, "jp", 0, 9)
        s.add_eq({"jp": 1, "j": -1}, -2)
        lo, hi = s.objective_bounds({"jp": 1, "j": -1})
        assert lo == 2 and hi == 2

    def test_triangular_distance_positive(self):
        """The LU-style bound: d = k - i with i in [0,N], k in [i+1,N]
        must come out strictly positive."""
        s = LinearSystem()
        n = 10
        box(s, "i", 0, n)
        s.add_ge({"k": 1, "i": -1}, -1)
        s.add_le({"k": 1}, -n)
        lo, hi = s.objective_bounds({"k": 1, "i": -1})
        assert lo == 1 and hi == n

    def test_copy_is_independent(self):
        s = LinearSystem()
        box(s, "x", 0, 5)
        s2 = s.copy()
        s2.add_le({"x": 1}, 1)  # x <= -1 - infeasible
        assert s.feasible()
        assert not s2.feasible()

    def test_variables_listing(self):
        s = LinearSystem()
        s.add_le({"b": 1, "a": -2}, 0)
        s.add_eq({"c": 1}, 0)
        assert s.variables() == ["a", "b", "c"]


@given(
    st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-8, 8)),
        min_size=1,
        max_size=6,
    ),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
@settings(max_examples=150, deadline=None)
def test_feasibility_consistent_with_witness(constraints, x, y):
    """If a point satisfies all constraints, FM must report feasible."""
    s = LinearSystem()
    satisfied = True
    for a, b, c in constraints:
        s.add_le({"x": a, "y": b}, c)
        if a * x + b * y + c > 0:
            satisfied = False
    if satisfied:
        assert s.feasible()


@given(st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_bounds_contain_objective_at_witness(lox, hix, c):
    if lox > hix:
        return
    s = LinearSystem()
    box(s, "x", lox, hix)
    lo, hi = s.objective_bounds({"x": 3}, c)
    for x in range(lox, hix + 1):
        v = 3 * x + c
        assert lo <= v <= hi


# ---------------------------------------------------------------------------
# reference: the Fraction eliminator the integer core replaced
# ---------------------------------------------------------------------------

class FractionSystem:
    """Reference: Gaussian substitution plus Fourier–Motzkin on Fractions.

    A conjunction of affine equalities and <=-inequalities.

    Constraints are stored as (coeffs, const) meaning
    ``sum(coeffs[v] * v) + const <= 0`` (or ``== 0`` for equalities).
    """

    def __init__(self) -> None:
        self.inequalities: List[Tuple[Coeffs, Fraction]] = []
        self.equalities: List[Tuple[Coeffs, Fraction]] = []

    # -- construction -------------------------------------------------------

    @staticmethod
    def _norm(coeffs: Dict[str, object], const) -> Tuple[Coeffs, Fraction]:
        c = {v: Fraction(x) for v, x in coeffs.items() if Fraction(x) != 0}
        return c, Fraction(const)

    def add_le(self, coeffs: Dict[str, object], const) -> None:
        """Add ``sum coeffs*v + const <= 0``."""
        self.inequalities.append(self._norm(coeffs, const))

    def add_ge(self, coeffs: Dict[str, object], const) -> None:
        """Add ``sum coeffs*v + const >= 0``."""
        c, k = self._norm(coeffs, const)
        self.inequalities.append(({v: -x for v, x in c.items()}, -k))

    def add_eq(self, coeffs: Dict[str, object], const) -> None:
        """Add ``sum coeffs*v + const == 0``."""
        self.equalities.append(self._norm(coeffs, const))

    def copy(self) -> "FractionSystem":
        out = FractionSystem()
        out.inequalities = [(dict(c), k) for c, k in self.inequalities]
        out.equalities = [(dict(c), k) for c, k in self.equalities]
        return out

    def variables(self) -> List[str]:
        vs = set()
        for c, _ in self.inequalities + self.equalities:
            vs.update(c)
        return sorted(vs)

    # -- solving ---------------------------------------------------------------

    def _substituted_inequalities(self) -> Optional[List[Tuple[Coeffs, Fraction]]]:
        """Gauss-eliminate the equalities into the inequalities.

        Returns the reduced inequality list, or None when the equalities
        alone are inconsistent (over Q).
        """
        eqs = [(dict(c), k) for c, k in self.equalities]
        ineqs = [(dict(c), k) for c, k in self.inequalities]
        # Triangularize equalities, substituting into everything else.
        for idx in range(len(eqs)):
            c, k = eqs[idx]
            # Never pick the objective marker as a pivot: substituting it
            # away would erase the variable whose bounds we are computing.
            candidates = sorted(v for v in c if v != "__objective__")
            pivot = candidates[0] if candidates else None
            if pivot is None:
                if not c:
                    if k != 0:
                        return None
                    continue
                # Equality over the objective alone: keep it as a pair of
                # inequalities so the bounds survive elimination.
                ineqs.append((dict(c), k))
                ineqs.append(({v: -x for v, x in c.items()}, -k))
                continue
            pc = c[pivot]
            # pivot = -(k + sum others)/pc ; substitute everywhere.
            def subst(target: Tuple[Coeffs, Fraction]) -> Tuple[Coeffs, Fraction]:
                tc, tk = target
                if pivot not in tc:
                    return target
                factor = tc[pivot] / pc
                nc = dict(tc)
                del nc[pivot]
                for v, x in c.items():
                    if v == pivot:
                        continue
                    nc[v] = nc.get(v, Fraction(0)) - factor * x
                    if nc[v] == 0:
                        del nc[v]
                return nc, tk - factor * k
            for j in range(idx + 1, len(eqs)):
                eqs[j] = subst(eqs[j])
            ineqs = [subst(t) for t in ineqs]
        return ineqs

    @staticmethod
    def _eliminate(
        ineqs: List[Tuple[Coeffs, Fraction]], var: str
    ) -> Optional[List[Tuple[Coeffs, Fraction]]]:
        """One Fourier–Motzkin step; None if an immediate contradiction
        (constant constraint c <= 0 with c > 0) appears."""
        lower = []  # coeff < 0: gives var >= bound
        upper = []  # coeff > 0: gives var <= bound
        rest = []
        for c, k in ineqs:
            a = c.get(var, Fraction(0))
            if a > 0:
                upper.append((c, k, a))
            elif a < 0:
                lower.append((c, k, a))
            else:
                rest.append((c, k))
        out = list(rest)
        for cu, ku, au in upper:
            for cl, kl, al in lower:
                # combine: au*(lower) - al*(upper) eliminates var
                nc: Coeffs = {}
                for v in set(cu) | set(cl):
                    if v == var:
                        continue
                    x = cu.get(v, Fraction(0)) / au - cl.get(v, Fraction(0)) / al
                    if x != 0:
                        nc[v] = x
                nk = ku / au - kl / al
                if not nc:
                    if nk > 0:
                        return None
                    continue
                out.append((nc, nk))
        # Constant contradictions in `rest`.
        for c, k in rest:
            if not c and k > 0:
                return None
        return out

    def feasible(self) -> bool:
        """Rational feasibility of the full system."""
        ineqs = self._substituted_inequalities()
        if ineqs is None:
            return False
        for c, k in ineqs:
            if not c and k > 0:
                return False
        vs = sorted({v for c, _ in ineqs for v in c})
        for v in vs:
            result = self._eliminate(ineqs, v)
            if result is None:
                return False
            ineqs = result
        return all(k <= 0 for c, k in ineqs if not c)

    def objective_bounds(
        self, coeffs: Dict[str, object], const=0
    ) -> Optional[Tuple[Optional[Fraction], Optional[Fraction]]]:
        """Exact (min, max) of an affine objective over the solution set.

        Returns None when the system is infeasible; otherwise a pair
        whose entries are Fractions or None for unbounded directions.
        """
        sys2 = self.copy()
        obj = "__objective__"
        c = {v: -Fraction(x) for v, x in coeffs.items()}
        c[obj] = Fraction(1)
        sys2.add_eq(c, -Fraction(const))
        ineqs = sys2._substituted_inequalities()
        if ineqs is None:
            return None
        vs = sorted({v for cc, _ in ineqs for v in cc if v != obj})
        for v in vs:
            result = self._eliminate(ineqs, v)
            if result is None:
                return None
            ineqs = result
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for cc, k in ineqs:
            a = cc.get(obj, Fraction(0))
            if a == 0:
                if not cc and k > 0:
                    return None
                continue
            bound = -k / a
            if a > 0:  # obj <= bound
                hi = bound if hi is None else min(hi, bound)
            else:  # obj >= bound
                lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None and lo > hi:
            return None
        return lo, hi


VARS = ("a", "b", "c", "d")


@st.composite
def small_systems(draw):
    """1–4 variables, 0–2 equalities, 1–6 inequalities (each ``<=`` or
    ``>=``), coefficients in [-3, 3], constants in [-8, 8]; plus an
    objective with coefficients in [-2, 2]."""
    names = VARS[: draw(st.integers(1, 4))]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(names),
                      max_size=len(names))
    eqs = draw(st.lists(st.tuples(coeffs, st.integers(-8, 8)), max_size=2))
    ineqs = draw(st.lists(
        st.tuples(coeffs, st.integers(-8, 8), st.booleans()),
        min_size=1, max_size=6,
    ))
    obj = draw(st.lists(st.integers(-2, 2), min_size=len(names),
                        max_size=len(names)))
    obj_const = draw(st.integers(-2, 2))
    systems = (LinearSystem(), FractionSystem())
    for s in systems:
        for c, k in eqs:
            s.add_eq(dict(zip(names, c)), k)
        for c, k, le in ineqs:
            (s.add_le if le else s.add_ge)(dict(zip(names, c)), k)
    return systems, dict(zip(names, obj)), obj_const


@given(small_systems())
@settings(max_examples=400, deadline=None)
def test_matches_fraction_reference(case):
    """Feasibility and objective bounds equal the Fraction eliminator's
    exactly, including None entries and non-integral bounds."""
    (s, ref), obj, const = case
    assert s.feasible() == ref.feasible()
    got = s.objective_bounds(obj, const)
    want = ref.objective_bounds(obj, const)
    assert got == want
    if got is not None:
        assert all(b is None or isinstance(b, Fraction) for b in got)
