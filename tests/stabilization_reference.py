"""The torsion colimit of ``wittkit.stabilization`` as it was computed
before, kept as oracles that ``colimit(...).torsion`` is tested against
(``test_stabilization_properties.py``, ``test_stabilization.py``).

``_torsion_colimit`` iterates lattice bases until the image stops
shrinking: each step maps the current basis by the period map, adds the
relations and reduces the spanning set to a basis (a Smith form and the
inverse of its U), until the index of the lattice stops changing; the
invariant factors of relations modulo that lattice are the answer.  Fast
at three factors or fewer of small order, and exponential in the number
of steps beyond.

``closed_form_torsion_colimit`` squares the torsion block A as a
``GroupHom`` up to A^M, M >= log2 |G|, and reads A^M G off the kernel of
[A^M | -diag(d)] with a Smith form (``_image_group``), re-checked against
A^(M+1) G the same way.  It is the code ``colimit`` ran before the
Hermite-form version, except that its kernel and Smith form come from
``intlinalg_reference``, as every oracle's here do, so none reads
``hermite_form``.

``smith_free_colimit`` is the free half as ``colimit`` computed it before
it read rho and U off one Hermite form: a Smith form U F^r V = D of the
r-th power gives rho and U, and the first rho columns of U^-1 are a basis
of the saturated eventual image, on which F is restricted by a solve.
Its Smith form, inverse and solve come from ``intlinalg_reference``.
``charpoly_free_colimit`` shares no lattice code with either: with
charpoly(F) = x^z g(x) and g(0) != 0, F acts on its Fitting summand
im F^r with characteristic polynomial g, so rho = r - z and the inverted
primes are those of g(0), the lowest nonzero coefficient.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

from wittkit.errors import IdentityViolated
from wittkit.intlinalg import (
    IntMatrix,
    columns_to_matrix,
    identity_int,
    int_det,
    matmul_int,
    prime_factors,
)
from wittkit.matrices import _charpoly
from wittkit.stabilization import FgAbGroup, GroupHom

from intlinalg_reference import (
    int_inverse_unimodular,
    kernel_basis_int,
    smith_normal_form,
    solve_int,
    solve_int_by_smith,
)


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


def _presented(n: int, cols: list[list[int]]) -> FgAbGroup:
    """``FgAbGroup.from_presentation`` on the reference Smith form."""
    _, d, _ = smith_normal_form(columns_to_matrix(cols, n))
    nonzero = [x for x in (d[i][i] for i in range(min(n, len(cols)))) if x]
    return FgAbGroup(n - len(nonzero), tuple(x for x in nonzero if x > 1))


def _image_group(power: IntMatrix, factors: tuple[int, ...]) -> FgAbGroup:
    """The image of the sum of the Z/d_i under ``power``: Z^s modulo the
    x with power*x in the relations, read off the kernel of [power | -diag(d)]."""
    s = len(factors)
    stacked = [
        [*row, *(-d if j == i else 0 for j in range(s))] for i, (row, d) in enumerate(zip(power, factors))
    ]
    return _presented(s, [vec[:s] for vec in kernel_basis_int(stacked, 2 * s)])


def closed_form_torsion_colimit(g: GroupHom) -> tuple[int, ...]:
    factors = g.source.torsion
    if not factors:
        return ()
    t = FgAbGroup(0, factors)
    a = GroupHom(t, t, g.torsion_block())
    steps = math.prod(factors).bit_length() - 1  # floor(log2 |G|)
    power, m = a, 1
    while m < steps:
        power, m = power.compose(power), 2 * m
    image = _image_group(power.matrix, factors)
    if _image_group(a.compose(power).matrix, factors) != image:
        raise IdentityViolated("the torsion image settles within log2 |G| steps")
    return image.torsion


def smith_free_colimit(f: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(rho, inverted primes) of the colimit of Z^r under F, from a Smith form of F^r."""
    r = len(f)
    if r == 0:
        return 0, ()
    fr = reduce(matmul_int, [f] * r)
    u, d, _ = smith_normal_form(fr)
    rho = sum(1 for i in range(r) if d[i][i])
    if rho == 0:
        return 0, ()
    ui = int_inverse_unimodular(u)
    basis = [[ui[i][j] for j in range(rho)] for i in range(r)]
    restricted = solve_int_by_smith(basis, matmul_int(f, basis))
    if restricted is None:
        raise IdentityViolated("the period map must preserve its eventual image")
    delta = int_det(restricted)
    if delta == 0:
        raise IdentityViolated("the period map is invertible on its eventual image")
    return rho, tuple(prime_factors(delta))


def charpoly_free_colimit(f: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(rho, inverted primes) from charpoly(F) = x^z g(x), g(0) != 0."""
    poly = _charpoly((operator.add, operator.neg, operator.mul), f, 1)
    rho = max((i for i, c in enumerate(poly) if c), default=0)
    return rho, tuple(prime_factors(poly[rho]))
