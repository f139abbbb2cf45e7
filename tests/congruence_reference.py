"""The plane-count oracle of ``test_congruence.py``: Witt decomposition by
diagonalizing all that is left of the form after every plane.

``witt_decompose`` diagonalizes a symmetric form once and splits each
plane inside the diagonal block of its witness.  ``witt_decompose_whole_block``
runs on the same integer grids of ``forms`` but, before each search,
diagonalizes the whole remaining block again, and splits each plane with
two congruences of that whole block, O(n^4) in all.  Its searches read
other diagonals, so the tests compare the two by the number of planes,
the remainder's Witt class and the refusals.  That each answer is a
congruence at all is checked by ``witt_oracle``, which shares no code
with ``forms``.
"""

from __future__ import annotations

import math
import operator

from wittkit import forms
from wittkit.errors import IdentityViolated, IllFormed, OracleInconclusive, SpecMismatch
from wittkit.forms import (
    _SEARCH_RINGS,
    GramForm,
    WittDecomposition,
    _certify,
    _hyperbolic_matrix,
    _isotropic_on_diagonal,
)
from wittkit.matrices import InvMatrix, _canonical, _reduced
from wittkit.rings import RATIONALS


def witt_decompose_whole_block(
    f: GramForm, height_bound: int = 6, require_certified: bool = False
) -> WittDecomposition:
    """Split off hyperbolic planes, diagonalizing all that is left of the
    form before each search, on the integer grids of ``forms``."""
    spec = f.ring
    if spec.kind not in _SEARCH_RINGS:
        raise SpecMismatch(f"Witt decomposition not supported over {spec}")
    if height_bound < 1:
        raise IllFormed("height_bound must be a positive integer")
    eps, n, mod = f.epsilon, f.dim, spec.p
    (grid,), den = f.gram._slice_form()
    # the planes split off so far fill a[:off][:off]; what is left is the
    # block from off on, orthogonal to them
    ws = forms._Congruence(mod, grid, den)
    off = 0
    while off < n:
        m = n - off
        (cur,), dcur = _reduced(mod, [[row[off:] for row in ws.a[off:]]], ws.da)
        if eps == 1:
            dg = forms._diagonal(spec, cur, dcur)
            if spec.kind == RATIONALS:
                forms._reduce_rational_diag(dg)
            xd = _isotropic_on_diagonal(spec, [dg.a[k][k] for k in range(m)], height_bound)
            if xd is None:
                ws.apply(dg.p, dg.dp, off)
                break
            x = [sum(map(operator.mul, r, xd)) for r in dg.p]
            g = math.gcd(*x)  # x is made primitive; over F_p the residues will do
            x = [c % mod for c in x] if mod else [c // g for c in x]
        else:
            # skew: every vector is isotropic, and m is even by nondegeneracy
            x = [1] + [0] * (m - 1)
        ws.apply(*forms._hyperbolic_pair(spec, cur, dcur, x, eps), off)
        # kill B(x, v_l) and B(w, v_l) against the hyperbolic pair
        a, d = ws.a, ws.da
        e = [[d * (r == c) for c in range(m)] for r in range(m)]
        for l in range(2, m):
            e[0][l] = -eps * a[off + 1][off + l]
            e[1][l] = -a[off][off + l]
        ws.apply(e, d, off)
        # the first two basis vectors must now span a standard hyperbolic
        # plane orthogonal to the rest
        a, d = ws.a, ws.da
        plane = [[0, d], [eps * d % mod if mod else eps * d, 0]]
        if [r[off : off + 2] for r in a[off : off + 2]] != plane or any(
            a[off + r][l] or a[l][off + r] for r in (0, 1) for l in range(off + 2, n)
        ):
            raise IdentityViolated("the hyperbolic pair did not split off")
        off += 2

    aniso_matrix = _canonical(spec, [[row[off:] for row in ws.a[off:]]], ws.da, n - off, n - off)
    (aniso,), _ = aniso_matrix._slice_form()
    basis = InvMatrix._from_slices(spec, [ws.p], ws.dp, n, n)
    expected = InvMatrix.block_diag([_hyperbolic_matrix(spec, 1, eps)] * (off // 2) + [aniso_matrix])
    if basis.conj_transpose() * f.gram * basis != expected:
        raise IdentityViolated("Witt decomposition certificate failed to re-multiply")
    certified = _certify(spec, eps, aniso)
    if require_certified and not certified:
        raise OracleInconclusive(
            f"anisotropy of the {len(aniso)}-dimensional remainder is not "
            f"certified within height bound {height_bound}"
        )
    return WittDecomposition(off // 2, GramForm(aniso_matrix, eps), basis, certified)
