"""Exact integer linear algebra.

All of the affine machinery in this package — dependence testing,
unimodular loop transformations, affine computation/data decompositions —
needs *exact* arithmetic over the integers.  Floating point is unusable
(a rank decision made with a rounded pivot silently produces a wrong
parallelization), so everything here works on plain Python ``int``
matrices represented as ``list[list[int]]``.

The workhorse is the Hermite Normal Form computed by integer row
operations (extended-gcd pivoting).  From it we derive ranks, integer
nullspace lattice bases, solutions of linear Diophantine systems and
unimodular completions (via the Smith Normal Form).

None of these matrices is large — loop nests are 2-4 deep and arrays
2-3 dimensional — so the implementations favour clarity and exactness
over asymptotic cleverness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]
Vector = List[int]


# ---------------------------------------------------------------------------
# Basic constructors and operations
# ---------------------------------------------------------------------------

def identity(n: int) -> Matrix:
    """Return the n-by-n identity matrix."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    """Return an m-by-n zero matrix."""
    return [[0] * n for _ in range(m)]


def copy_matrix(a: Sequence[Sequence[int]]) -> Matrix:
    """Deep-copy a matrix into fresh lists of ints."""
    return [list(map(int, row)) for row in a]


def shape(a: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Return (rows, cols); a zero-row matrix has shape (0, 0)."""
    m = len(a)
    n = len(a[0]) if m else 0
    return m, n


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    """Return the transpose of ``a``."""
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact matrix product a @ b."""
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise ValueError(f"shape mismatch: ({m},{k}) @ ({k2},{n})")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vector:
    """Exact matrix-vector product a @ v."""
    m, n = shape(a)
    if n != len(v):
        raise ValueError(f"shape mismatch: ({m},{n}) @ ({len(v)},)")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact elementwise sum."""
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in mat_add")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact elementwise difference."""
    if shape(a) != shape(b):
        raise ValueError("shape mismatch in mat_sub")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def hstack(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Horizontally concatenate two matrices with equal row counts."""
    if len(a) != len(b):
        raise ValueError("row-count mismatch in hstack")
    return [list(ra) + list(rb) for ra, rb in zip(a, b)]


def vstack(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Vertically concatenate two matrices with equal column counts."""
    if a and b and len(a[0]) != len(b[0]):
        raise ValueError("column-count mismatch in vstack")
    return copy_matrix(a) + copy_matrix(b)


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant via the Bareiss fraction-free algorithm."""
    m, n = shape(a)
    if m != n:
        raise ValueError("determinant of non-square matrix")
    if m == 0:
        return 1
    mat = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            # Find a row below with a nonzero pivot and swap it up.
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    """True iff ``a`` is square with determinant +1 or -1."""
    m, n = shape(a)
    return m == n and abs(determinant(a)) == 1


# ---------------------------------------------------------------------------
# Hermite Normal Form
# ---------------------------------------------------------------------------

def hermite_normal_form(
    a: Sequence[Sequence[int]],
) -> Tuple[Matrix, Matrix, List[int]]:
    """Row-style Hermite Normal Form.

    Returns ``(H, U, pivots)`` with ``H = U @ a``, ``U`` unimodular, and
    ``H`` in row echelon form: each nonzero row has a positive leading
    entry (pivot) strictly to the right of the previous row's pivot,
    entries below each pivot are zero, and entries *above* each pivot are
    reduced into ``[0, pivot)``.  ``pivots`` lists the pivot column of
    each nonzero row.
    """
    h = copy_matrix(a)
    m, n = shape(h)
    u = identity(m)
    pivots: List[int] = []
    row = 0
    for col in range(n):
        # Find a pivot row at or below `row` with nonzero entry in `col`.
        pivot_row = None
        for i in range(row, m):
            if h[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            h[row], h[pivot_row] = h[pivot_row], h[row]
            u[row], u[pivot_row] = u[pivot_row], u[row]
        # Eliminate entries below using extended-gcd row combinations,
        # which keep everything integral and the transform unimodular.
        for i in range(row + 1, m):
            while h[i][col] != 0:
                q = h[row][col] // h[i][col]
                for j in range(n):
                    h[row][j] -= q * h[i][j]
                for j in range(m):
                    u[row][j] -= q * u[i][j]
                h[row], h[i] = h[i], h[row]
                u[row], u[i] = u[i], u[row]
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        # Reduce the entries above the pivot into [0, pivot).
        p = h[row][col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                for j in range(n):
                    h[i][j] -= q * h[row][j]
                for j in range(m):
                    u[i][j] -= q * u[row][j]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return h, u, pivots


def column_hermite_normal_form(
    a: Sequence[Sequence[int]],
) -> Tuple[Matrix, Matrix, List[int]]:
    """Column-style HNF: returns ``(H, V, pivots)`` with ``H = a @ V``,
    ``V`` unimodular, ``H`` in column echelon form.  ``pivots`` lists the
    pivot row of each nonzero column.
    """
    ht, ut, pivots = hermite_normal_form(transpose(a))
    return transpose(ht), transpose(ut), pivots


def integer_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of ``a`` (identical over Z-lattices and over Q)."""
    if not a:
        return 0
    _, _, pivots = hermite_normal_form(a)
    return len(pivots)


# ---------------------------------------------------------------------------
# Nullspaces
# ---------------------------------------------------------------------------

def integer_nullspace(a: Sequence[Sequence[int]]) -> Matrix:
    """Basis (as rows) of the integer nullspace lattice {x : a @ x = 0}.

    The returned rows generate *all* integer solutions: the lattice is
    saturated, so any integer solution is an integer combination of the
    basis rows.  Returns ``[]`` when the nullspace is trivial.
    """
    m, n = shape(a)
    if n == 0:
        return []
    if m == 0:
        return identity(n)
    h, v, _ = column_hermite_normal_form(a)
    basis: Matrix = []
    for j in range(n):
        if all(h[i][j] == 0 for i in range(m)):
            basis.append([v[i][j] for i in range(n)])
    return basis


def integer_left_nullspace(a: Sequence[Sequence[int]]) -> Matrix:
    """Basis (as rows) of {y : y @ a = 0} over the integers."""
    return integer_nullspace(transpose(a))


# ---------------------------------------------------------------------------
# Smith Normal Form
# ---------------------------------------------------------------------------

def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith Normal Form: returns ``(U, S, V)`` with ``S = U @ a @ V``,
    ``U`` and ``V`` unimodular, and ``S`` diagonal with each diagonal
    entry dividing the next.
    """
    s = copy_matrix(a)
    m, n = shape(s)
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        for j in range(n):
            s[dst][j] += q * s[src][j]
        for j in range(m):
            u[dst][j] += q * u[src][j]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def normalize_pivot(t: int) -> None:
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]

    t = 0
    while t < min(m, n):
        # Find a nonzero pivot in the remaining submatrix.
        pi = pj = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0:
                    pi, pj = i, j
                    break
            if pi is not None:
                break
        if pi is None:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)
        # Repeat elimination until row t and column t are clear.  The
        # pivot is kept positive and every swap installs a strictly
        # smaller positive pivot (remainder-based Euclid), so the pass
        # terminates.
        while True:
            normalize_pivot(t)
            dirty = False
            for i in range(t + 1, m):
                while s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)  # remainder now in [0, pivot)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        normalize_pivot(t)
                    dirty = True
            for j in range(t + 1, n):
                while s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        normalize_pivot(t)
                    dirty = True
            if not dirty:
                break
        normalize_pivot(t)
        # Enforce the divisibility chain: s[t][t] must divide every
        # remaining entry; if not, fold the offending row in and redo.
        d = s[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1
    return u, s, v


# ---------------------------------------------------------------------------
# Unimodular completion
# ---------------------------------------------------------------------------

def unimodular_completion(rows: Sequence[Sequence[int]], n: int) -> Matrix:
    """Complete ``rows`` (k linearly independent integer n-vectors that
    form a basis of a saturated lattice) to an n-by-n unimodular matrix
    whose first k rows are exactly ``rows``.

    Raises ``ValueError`` when the rows are dependent or do not span a
    saturated lattice (elementary divisors != 1), in which case no such
    completion exists.
    """
    k = len(rows)
    if k == 0:
        return identity(n)
    b = copy_matrix(rows)
    if any(len(r) != n for r in b):
        raise ValueError("row length mismatch")
    u, s, v = smith_normal_form(b)
    diag = [s[i][i] for i in range(min(k, n))]
    if any(d == 0 for d in diag) or len(diag) < k:
        raise ValueError("rows are linearly dependent")
    if any(abs(d) != 1 for d in diag):
        raise ValueError("rows do not form a saturated lattice basis")
    # b = u^{-1} @ [I_k | 0] @ v^{-1}; build W = diag(u^{-1}, I) so that
    # (W @ v^{-1})[0:k] = b while W @ v^{-1} stays unimodular.
    u_inv = invert_unimodular(u)
    v_inv = invert_unimodular(v)
    w = identity(n)
    for i in range(k):
        for j in range(k):
            w[i][j] = u_inv[i][j]
    result = mat_mul(w, v_inv)
    # Sanity: the first k rows must literally equal the input rows.
    for i in range(k):
        if result[i] != list(map(int, rows[i])):
            raise AssertionError("unimodular completion failed to embed rows")
    return result


def invert_unimodular(a: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of a unimodular matrix (integer entries)."""
    m, n = shape(a)
    if m != n:
        raise ValueError("cannot invert non-square matrix")
    h, u, pivots = hermite_normal_form(a)
    # For a unimodular matrix the HNF is the identity, so H = U A = I
    # and U is the inverse.
    if len(pivots) != n or any(h[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    for i in range(n):
        for j in range(n):
            if h[i][j] != (1 if i == j else 0):
                raise ValueError("matrix is not unimodular")
    return u


# ---------------------------------------------------------------------------
# Linear Diophantine systems
# ---------------------------------------------------------------------------

def solve_diophantine(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[Tuple[Vector, Matrix]]:
    """Solve ``a @ x = b`` over the integers.

    Returns ``(x0, null_basis)`` where ``x0`` is a particular integer
    solution and ``null_basis`` rows generate the homogeneous solutions
    (so every solution is ``x0 + sum_i c_i * null_basis[i]``), or
    ``None`` when no integer solution exists.
    """
    m, n = shape(a)
    if m != len(b):
        raise ValueError("shape mismatch in solve_diophantine")
    if m == 0:
        return [0] * n, identity(n)
    h, v, _ = column_hermite_normal_form(a)
    # Solve h @ y = b by forward substitution over the echelon columns.
    y = [0] * n
    residual = list(map(int, b))
    col = 0
    for col_idx in range(n):
        # Pivot row of this column, if any.
        pivot_row = None
        for i in range(m):
            if h[i][col_idx] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        num = residual[pivot_row]
        den = h[pivot_row][col_idx]
        if num % den != 0:
            return None
        q = num // den
        y[col_idx] = q
        for i in range(m):
            residual[i] -= q * h[i][col_idx]
        col += 1
    if any(r != 0 for r in residual):
        return None
    x0 = mat_vec(v, y)
    return x0, integer_nullspace(a)


# ---------------------------------------------------------------------------
# Rational row-space helpers (used by the decomposition solver)
# ---------------------------------------------------------------------------

def rowspace_basis(a: Sequence[Sequence[int]]) -> Matrix:
    """Integer basis for the row space of ``a`` (nonzero HNF rows).

    The basis is in echelon form, which gives a canonical representative
    of the row space and makes equality comparisons cheap.
    """
    if not a:
        return []
    h, _, pivots = hermite_normal_form(a)
    return [h[i] for i in range(len(pivots))]
