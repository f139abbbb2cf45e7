"""The torsion colimit of ``wittkit.stabilization`` as it was computed by
iterating lattice bases until the image stopped shrinking.

This is the reference ``colimit(...).torsion`` is tested against
(``test_stabilization.py``): each step maps the current basis by the
period map, adds the relations and reduces the spanning set to a basis
(a Smith form and the inverse of its U), until the index of the lattice
stops changing; the invariant factors of relations modulo that lattice
are the answer.  Fast at three factors or fewer of small order, and
exponential in the number of steps beyond.
"""

from __future__ import annotations

from wittkit.errors import IdentityViolated
from wittkit.intlinalg import (
    IntMatrix,
    columns_to_matrix,
    identity_int,
    int_det,
    matmul_int,
)
from wittkit.stabilization import GroupHom

from intlinalg_reference import int_inverse_unimodular, smith_normal_form, solve_int


def _lattice_basis(mat: IntMatrix) -> IntMatrix:
    """Full-column-rank basis matrix of the lattice the columns span."""
    nrows = len(mat)
    if not nrows or not mat[0]:
        return [[] for _ in range(nrows)]
    u, d, _ = smith_normal_form(mat)
    ui = int_inverse_unimodular(u)
    cols = []
    for i in range(min(nrows, len(mat[0]))):
        if d[i][i]:
            cols.append([ui[r][i] * d[i][i] for r in range(nrows)])
    return columns_to_matrix(cols, nrows)


def _torsion_colimit(g: GroupHom) -> tuple[int, ...]:
    factors = g.source.torsion
    s = len(factors)
    if s == 0:
        return ()
    a = g.torsion_block()
    relations = [[factors[j] if i == j else 0 for j in range(s)] for i in range(s)]
    rel_cols = [[relations[i][j] for i in range(s)] for j in range(s)]
    basis = identity_int(s)
    full = 1
    for d in factors:
        full *= d
    order = full
    while True:
        ab = matmul_int(a, basis)
        cols = [[ab[i][j] for i in range(s)] for j in range(len(basis[0]))] + rel_cols
        basis = _lattice_basis(columns_to_matrix(cols, s))
        new_order = full // abs(int_det(basis))
        if new_order == order:
            break
        order = new_order
    # invariant factors of (image + relations) / relations
    x_cols = []
    for j in range(s):
        col = solve_int(basis, rel_cols[j])
        if col is None:
            raise IdentityViolated("relations lie inside every iterated image")
        x_cols.append(col)
    _, d, _ = smith_normal_form(columns_to_matrix(x_cols, s))
    return tuple(d[i][i] for i in range(s) if d[i][i] > 1)
