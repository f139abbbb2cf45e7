"""``wittkit.intlinalg`` routines as they were before a faster algorithm
replaced them, kept as oracles.

``solve_int`` takes one right-hand side: a Smith form of ``a`` for every
vector ``b``.  The matrix ``solve_int`` is tested against it applied
column by column (``test_intlinalg.py``), and the lattice fixpoint of
``stabilization_reference`` solves with it.

``lattice_equal`` solves for each side in the other with the matrix
``solve_int``: two Smith forms per comparison.  The Hermite-form
``lattice_equal`` is tested against it (``test_lattice_hnf.py``).
"""

from __future__ import annotations

from wittkit import intlinalg
from wittkit.intlinalg import IntMatrix, smith_normal_form


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
    return intlinalg.solve_int(b, a) is not None and intlinalg.solve_int(a, b) is not None
