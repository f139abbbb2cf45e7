"""``wittkit.intlinalg`` routines as they were before a faster algorithm
replaced them, kept as oracles.

``solve_int`` takes one right-hand side: a Smith form of ``a`` for every
vector ``b``.  The matrix ``solve_int`` is tested against it applied
column by column (``test_intlinalg.py``), and the lattice fixpoint of
``stabilization_reference`` solves with it.

``solve_int_by_smith`` solves for a matrix of right-hand sides with one
Smith form, and ``kernel_basis_int`` reads the kernel off the V of one;
``int_inverse_unimodular`` runs Euclid down each column of [a | I].  Each
was replaced by a reader of one Hermite form, and each reader is tested
against it (``test_intlinalg.py``); ``stabilization_reference`` inverts
with the Euclid one.

``lattice_equal`` solves for each side in the other with the matrix
``solve_int_by_smith``: two Smith forms per comparison.  The Hermite-form
``lattice_equal`` is tested against it (``test_lattice_hnf.py``).

``smith_normal_form`` diagonalizes by row and column operations on the
entry of least magnitude.  It was replaced by alternating Hermite forms,
which are tested against it (``test_stabilization.py``); every oracle here
and in ``stabilization_reference`` takes its Smith forms from it, so none
reads ``hermite_form``.
"""

from __future__ import annotations

from wittkit.intlinalg import IntMatrix, identity_int, matmul_int


def matvec_int(a: IntMatrix, v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def solve_int(a: IntMatrix, b: list[int]) -> list[int] | None:
    """One integer solution x of a*x = b, or None when there is none."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if len(b) != nrows:
        raise ValueError("dimension mismatch in solve_int")
    if ncols == 0:
        return [] if all(x == 0 for x in b) else None
    U, D, V = smith_normal_form(a)
    c = matvec_int(U, b)
    y = [0] * ncols
    for i in range(nrows):
        d = D[i][i] if i < min(nrows, ncols) else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return matvec_int(V, y)


def lattice_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Do the columns of ``a`` and ``b`` generate the same lattice?  Each
    side is solved for in the other, all its columns at once."""
    if len(a) != len(b):
        raise ValueError("lattices live in different ambient ranks")
    return solve_int_by_smith(b, a) is not None and solve_int_by_smith(a, b) is not None


def int_inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix whose determinant is +-1, by integer row
    operations on [a | I]: Euclid down each column, then back substitution.
    Raises ValueError for any other matrix."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        while True:
            rows = [r for r in range(col, n) if aug[r][col]]
            if not rows:
                raise ValueError("matrix is singular")
            piv = min(rows, key=lambda r: abs(aug[r][col]))
            aug[col], aug[piv] = aug[piv], aug[col]
            top = aug[col]
            if len(rows) == 1:
                break
            for r in range(col + 1, n):
                q = aug[r][col] // top[col]
                aug[r] = [x - q * y for x, y in zip(aug[r], top)]
        if abs(top[col]) != 1:
            raise ValueError("matrix is not unimodular")
        aug[col] = [top[col] * x for x in top]
    for col in reversed(range(n)):
        for r in range(col):
            q = aug[r][col]
            aug[r] = [x - q * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def solve_int_by_smith(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An n x k integer X with a*X = b for the m x n ``a`` and the m x k
    ``b`` (one right-hand side per column), or None when any column has
    none.  One Smith form D = U*a*V serves all columns: X = V*Y, row i
    of Y being row i of U*b over d_i, and rows of U*b past the last
    nonzero d_i must be zero."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if len(b) != nrows:
        raise ValueError("dimension mismatch in solve_int_by_smith")
    if ncols == 0:
        return None if any(map(any, b)) else []
    U, D, V = smith_normal_form(a)
    c = matmul_int(U, b)
    rank = sum(1 for i in range(min(nrows, ncols)) if D[i][i])  # zeros come last
    if any(map(any, c[rank:])):
        return None
    y = []
    for i, row in enumerate(c[:rank]):
        d = D[i][i]
        if any(x % d for x in row):
            return None
        y.append([x // d for x in row])
    y += [[0] * len(b[0]) for _ in range(ncols - rank)]
    return matmul_int(V, y)


def kernel_basis_int(a: IntMatrix, n: int) -> list[list[int]]:
    """Basis (as vectors) of the integer kernel lattice of the m x n ``a``:
    the columns of V past the nonzero diagonal of its Smith form, and all
    of Z^n when m = 0 (where the parent's callers spelled it out)."""
    if not a:
        return identity_int(n)
    _, D, V = smith_normal_form(a)
    return [[V[i][j] for i in range(n)] for j in range(n) if j >= len(a) or D[j][j] == 0]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U*a*V, U and V unimodular, and D diagonal
    with nonnegative entries satisfying d1 | d2 | ... (zeros at the end)."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    A = [row[:] for row in a]
    U = identity_int(nrows)
    V = identity_int(ncols)

    def add_row(dst: int, src: int, q: int) -> None:
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    while t < min(nrows, ncols):
        # pivot: entry of least magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]

        while True:
            # clear the pivot column
            moved = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
                        moved = True
            if moved:
                continue
            # clear the pivot row
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        for row in V:
                            row[t], row[j] = row[j], row[t]
                        moved = True
            if moved:
                continue
            # enforce divisibility of the trailing block
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(min(nrows, ncols)):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]
            U[i] = [-x for x in U[i]]
    return U, A, V
