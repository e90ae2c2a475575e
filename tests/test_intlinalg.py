"""Unit and property tests for the exact integer linear algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.intlinalg import (
    column_hermite_normal_form,
    copy_matrix,
    determinant,
    hermite_normal_form,
    hstack,
    identity,
    integer_left_nullspace,
    integer_nullspace,
    integer_rank,
    invert_unimodular,
    is_unimodular,
    mat_add,
    mat_mul,
    mat_sub,
    mat_vec,
    rowspace_basis,
    smith_normal_form,
    solve_diophantine,
    transpose,
    unimodular_completion,
    vstack,
    zeros,
)

small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

class TestBasics:
    def test_identity(self):
        assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert identity(0) == []

    def test_zeros(self):
        assert zeros(2, 3) == [[0, 0, 0], [0, 0, 0]]

    def test_transpose(self):
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]

    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        assert mat_mul(a, b) == [[19, 22], [43, 50]]

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])

    def test_mat_vec(self):
        assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]

    def test_mat_vec_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec([[1, 2]], [1, 2, 3])

    def test_add_sub(self):
        a = [[1, 2]]
        b = [[3, 4]]
        assert mat_add(a, b) == [[4, 6]]
        assert mat_sub(b, a) == [[2, 2]]

    def test_stacks(self):
        assert hstack([[1], [2]], [[3], [4]]) == [[1, 3], [2, 4]]
        assert vstack([[1, 2]], [[3, 4]]) == [[1, 2], [3, 4]]
        with pytest.raises(ValueError):
            hstack([[1]], [[1], [2]])
        with pytest.raises(ValueError):
            vstack([[1, 2]], [[1]])

    def test_determinant(self):
        assert determinant([[2, 0], [0, 3]]) == 6
        assert determinant([[1, 2], [2, 4]]) == 0
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([]) == 1
        with pytest.raises(ValueError):
            determinant([[1, 2]])

    def test_determinant_3x3(self):
        # det via cofactor expansion cross-check
        m = [[2, -1, 0], [1, 3, 2], [0, 1, 1]]
        expected = 2 * (3 * 1 - 2 * 1) - (-1) * (1 * 1 - 2 * 0)
        assert determinant(m) == expected

    def test_is_unimodular(self):
        assert is_unimodular([[0, 1], [1, 0]])
        assert is_unimodular([[1, 5], [0, 1]])
        assert not is_unimodular([[2, 0], [0, 1]])
        assert not is_unimodular([[1, 2, 3]])


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

class TestHNF:
    def test_simple(self):
        h, u, piv = hermite_normal_form([[2, 4], [1, 3]])
        assert h == mat_mul(u, [[2, 4], [1, 3]])
        assert is_unimodular(u)
        assert piv == [0, 1]

    def test_zero_matrix(self):
        h, u, piv = hermite_normal_form([[0, 0], [0, 0]])
        assert piv == []
        assert h == [[0, 0], [0, 0]]

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_properties(self, a):
        h, u, pivots = hermite_normal_form(a)
        assert h == mat_mul(u, a)
        assert is_unimodular(u)
        last = -1
        for i, p in enumerate(pivots):
            assert p > last
            last = p
            assert h[i][p] > 0
            for i2 in range(i + 1, len(h)):
                assert h[i2][p] == 0
            for i2 in range(i):
                assert 0 <= h[i2][p] < h[i][p]
        # Rows past the pivots are zero.
        for i in range(len(pivots), len(h)):
            assert all(v == 0 for v in h[i])

    @given(small_matrix)
    @settings(max_examples=60, deadline=None)
    def test_column_hnf(self, a):
        h, v, _ = column_hermite_normal_form(a)
        assert h == mat_mul(a, v)
        assert is_unimodular(v)


# ---------------------------------------------------------------------------
# rank / nullspaces
# ---------------------------------------------------------------------------

class TestNullspace:
    def test_full_rank_trivial_nullspace(self):
        assert integer_nullspace([[1, 0], [0, 1]]) == []

    def test_zero_map(self):
        ns = integer_nullspace([[0, 0], [0, 0]])
        assert integer_rank(ns) == 2

    def test_known(self):
        ns = integer_nullspace([[1, 1]])
        assert len(ns) == 1
        assert ns[0][0] == -ns[0][1]

    def test_left_nullspace(self):
        lns = integer_left_nullspace([[1, 0], [1, 0]])
        assert len(lns) == 1
        y = lns[0]
        assert y[0] == -y[1]

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_nullspace_properties(self, a):
        ns = integer_nullspace(a)
        n = len(a[0])
        for row in ns:
            assert all(v == 0 for v in mat_vec(a, row))
        assert len(ns) == n - integer_rank(a)
        if ns:
            assert integer_rank(ns) == len(ns)

    @given(small_matrix, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_nullspace_saturated(self, a, coeffs):
        """Integer combinations of the basis stay in the nullspace (the
        lattice is closed) — and scaling outside the lattice is caught by
        membership of the generated vector."""
        ns = integer_nullspace(a)
        if not ns:
            return
        vec = [0] * len(ns[0])
        for c, row in zip(coeffs, ns):
            for k in range(len(vec)):
                vec[k] += c * row[k]
        assert all(v == 0 for v in mat_vec(a, vec))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class TestSNF:
    @given(small_matrix)
    @settings(max_examples=100, deadline=None)
    def test_properties(self, a):
        u, s, v = smith_normal_form(a)
        assert s == mat_mul(mat_mul(u, a), v)
        assert is_unimodular(u)
        assert is_unimodular(v)
        m, n = len(s), len(s[0])
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        diag = [s[i][i] for i in range(min(m, n))]
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0

    def test_known_divisors(self):
        _, s, _ = smith_normal_form([[2, 0], [0, 4]])
        assert [s[0][0], s[1][1]] == [2, 4]
        _, s, _ = smith_normal_form([[2, 4], [4, 2]])
        # elementary divisors of [[2,4],[4,2]]: 2 and 6
        assert [s[0][0], s[1][1]] == [2, 6]


# ---------------------------------------------------------------------------
# unimodular completion / inversion
# ---------------------------------------------------------------------------

class TestUnimodular:
    def test_completion_identity_rows(self):
        t = unimodular_completion([[0, 1]], 2)
        assert is_unimodular(t)
        assert t[0] == [0, 1]

    def test_completion_empty(self):
        assert unimodular_completion([], 3) == identity(3)

    def test_completion_rejects_dependent(self):
        with pytest.raises(ValueError):
            unimodular_completion([[1, 0], [2, 0]], 2)

    def test_completion_rejects_unsaturated(self):
        with pytest.raises(ValueError):
            unimodular_completion([[2, 0]], 2)

    @given(small_matrix)
    @settings(max_examples=100, deadline=None)
    def test_completion_of_nullspace(self, a):
        ns = integer_nullspace(a)
        if not ns:
            return
        n = len(a[0])
        t = unimodular_completion(ns, n)
        assert is_unimodular(t)
        assert t[: len(ns)] == ns

    def test_invert(self):
        u = [[1, 3], [0, 1]]
        assert mat_mul(u, invert_unimodular(u)) == identity(2)

    def test_invert_rejects_singular(self):
        with pytest.raises(ValueError):
            invert_unimodular([[2, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Diophantine systems
# ---------------------------------------------------------------------------

class TestDiophantine:
    def test_simple(self):
        sol = solve_diophantine([[2, 3]], [7])
        assert sol is not None
        x0, ns = sol
        assert 2 * x0[0] + 3 * x0[1] == 7
        assert len(ns) == 1

    def test_no_solution(self):
        assert solve_diophantine([[2, 4]], [3]) is None

    def test_inconsistent(self):
        assert solve_diophantine([[1, 0], [1, 0]], [1, 2]) is None

    @given(small_matrix, st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, a, xfull):
        n = len(a[0])
        x = xfull[:n] + [0] * max(0, n - len(xfull))
        b = mat_vec(a, x)
        sol = solve_diophantine(a, b)
        assert sol is not None
        x0, ns = sol
        assert mat_vec(a, x0) == b


# ---------------------------------------------------------------------------
# row spaces
# ---------------------------------------------------------------------------

class TestRowspace:
    def test_basis_canonical(self):
        b1 = rowspace_basis([[1, 1], [2, 2]])
        assert len(b1) == 1
