"""The congruence steps of ``wittkit.forms`` as they were on Fraction grids.

This is the reference the integer congruence of ``forms`` is tested
against (``test_forms.py``): the same elimination order, pivot choices and
splitting steps, with every entry a ``Fraction`` (an int mod p over F_p)
and every product a payload fold through the ring's ops.  ``diagonalize``
and ``witt_decompose`` here must return bit for bit what the package
returns, with grids of integers over one denominator.

``witt_decompose_whole_block`` is an integer splitting loop that
diagonalizes all that is left of the form after every plane and splits
the plane with two congruences of that whole block, O(n^4) in all; it is
the oracle ``test_congruence.py`` compares the number of planes and the
remainder's Witt class against.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any, Sequence

from wittkit import forms
from wittkit.errors import DegenerateForm, IdentityViolated, IllFormed, OracleInconclusive, SpecMismatch
from wittkit.forms import (
    _PIVOT_BOUND,
    _SEARCH_RINGS,
    GramForm,
    WittDecomposition,
    _certify,
    _hyperbolic_matrix,
    _isotropic_on_diagonal,
    _signed_vectors,
    _unit_vector_search,
    _with_complement,
)
from wittkit.intlinalg import bezout_vector, square_part
from wittkit.matrices import InvMatrix, _canonical, _matmul, _reduced
from wittkit.rings import (
    DYADIC,
    RATIONALS,
    RingSpec,
    _inv,
    canon_payload,
)


def _add(spec: RingSpec, a: Any, b: Any) -> Any:
    return spec.ops.add(a, b)


def _neg(spec: RingSpec, a: Any) -> Any:
    return spec.ops.neg(a)


def _mul(spec: RingSpec, a: Any, b: Any) -> Any:
    return spec.ops.mul(a, b)


def _is_zero(spec: RingSpec, a: Any) -> bool:
    return spec.ops.is_zero(a)


def _pid(spec: RingSpec, n: int) -> list[list[Any]]:
    one, zero = spec.one, spec.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _pembed(spec: RingSpec, t: list[list[Any]], n: int, offset: int) -> list[list[Any]]:
    out = _pid(spec, n)
    for i, row in enumerate(t):
        for j, c in enumerate(row):
            out[offset + i][offset + j] = c
    return out


class _Congruence:
    """Mutable Gram grid plus the accumulated basis (columns of ``p``).

    ``addmul(dst, src, c)`` performs the basis change e_dst += c*e_src and
    keeps the Gram grid congruent, so at any moment  p* . original . p = a.
    It serves fp, q and dyadic only: their involution is trivial and their
    payloads are ints mod p or Fractions, so the row and column operations
    use plain integer or Fraction arithmetic, skipping zero source entries.
    """

    def __init__(self, spec: RingSpec, grid: Sequence[Sequence[Any]]):
        self.spec = spec
        self.mod = spec.p  # None except over fp
        self.a = [list(row) for row in grid]
        self.p = _pid(spec, len(self.a))

    def swap(self, i: int, j: int) -> None:
        if i == j:
            return
        a = self.a
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in self.p:
            row[i], row[j] = row[j], row[i]

    def addmul(self, dst: int, src: int, c: Any) -> None:
        a, mod = self.a, self.mod
        if mod is None:
            a[dst] = [x + c * y if y else x for x, y in zip(a[dst], a[src])]
            for grid in (a, self.p):
                for row in grid:
                    if row[src]:
                        row[dst] += c * row[src]
        else:
            a[dst] = [(x + c * y) % mod if y else x for x, y in zip(a[dst], a[src])]
            for grid in (a, self.p):
                for row in grid:
                    if row[src]:
                        row[dst] = (row[dst] + c * row[src]) % mod

    def scalecol(self, i: int, c: Any) -> None:
        """e_i *= c, over q and dyadic only (it normalizes their diagonals)."""
        a = self.a
        a[i] = [c * x for x in a[i]]
        for grid in (a, self.p):
            for row in grid:
                row[i] *= c

    def apply(self, t: list[list[Any]]) -> None:
        spec = self.spec
        self.a = _matmul(spec, list(zip(*t)), _matmul(spec, self.a, t))
        self.p = _matmul(spec, self.p, t)



def _diag_field(spec: RingSpec, grid: Sequence[Sequence[Any]]) -> _Congruence:
    ws = _Congruence(spec, grid)
    a = ws.a
    n = len(a)
    one = spec.one
    for i in range(n):
        if spec.kind == RATIONALS:
            # the first trailing diagonal entry p / q != 0 of least |p| q
            j = min((k for k in range(i, n) if a[k][k]), key=lambda k: abs(a[k][k].numerator) * a[k][k].denominator,
                    default=i)
            ws.swap(i, j)
        if _is_zero(spec, a[i][i]):
            j = next((k for k in range(i + 1, n) if not _is_zero(spec, a[k][k])), None)
            if j is not None:
                ws.swap(i, j)
            else:
                j = next(
                    (k for k in range(i + 1, n) if not _is_zero(spec, a[i][k])), None
                )
                if j is None:
                    raise DegenerateForm("form has a zero row")
                # a[i][i] becomes 2*a[i][j], nonzero because 2 is invertible
                ws.addmul(i, j, one)
        dinv = _inv(spec, a[i][i])
        for j in range(i + 1, n):
            if not _is_zero(spec, a[i][j]):
                ws.addmul(j, i, _neg(spec, _mul(spec, a[i][j], dinv)))
    return ws



def _dyadic_unit(q: Fraction) -> bool:
    num = abs(q.numerator)
    return num != 0 and num & (num - 1) == 0


def _v2_of_unit(q: Fraction) -> int:
    return abs(q.numerator).bit_length() - q.denominator.bit_length()



def _scaled_int_grid(grid: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    denom = math.lcm(*(c.denominator for row in grid for c in row)) if grid else 1
    return [[int(c * denom) for c in row] for row in grid]



def _dyadic_block_pivot(ws: _Congruence, i: int, bound: int) -> None:
    """Make a[i][i] a unit when no trailing diagonal entry is one: a
    unit-valued vector from a tiny search in a 2x2 principal block of unit
    determinant, else from a bounded search of the whole trailing block,
    repeated after each Lagrange step of that 2x2 block, is split off with
    its orthogonal complement."""
    a = ws.a
    n = len(a)
    pair = None
    for r in range(i, n):
        for s in range(r + 1, n):
            if _dyadic_unit(a[r][r] * a[s][s] - a[r][s] * a[r][s]):
                pair = (r, s)
                break
        if pair:
            break
    v = None
    if pair is not None:
        r, s = pair
        ws.swap(i, r)
        if s == i:
            s = r
        ws.swap(i + 1, s)
        aa, u, bb = a[i][i], a[i][i + 1], a[i + 1][i + 1]
        for x, y in _signed_vectors(2, 8):
            val = aa * x * x + 2 * u * x * y + bb * y * y
            if val and _dyadic_unit(val):
                v = (x, y) + (0,) * (n - i - 2)
                break

    def search() -> tuple[int, ...] | None:
        return _unit_vector_search(_scaled_int_grid([row[i:] for row in ws.a[i:]]), bound)

    if v is None:
        v = search()
    while v is None and pair is not None:
        # Lagrange steps on the pair, each a shear of the whole trailing block
        aa, u, bb = ws.a[i][i], ws.a[i][i + 1], ws.a[i + 1][i + 1]
        if abs(aa) > abs(bb):
            ws.swap(i, i + 1)
            aa, bb = bb, aa
        q = (2 * u + aa) // (2 * aa) if aa else (bb + u) // (2 * u)
        if not q:
            break
        ws.addmul(i + 1, i, Fraction(-q))
        v = search()
    if v is None:
        raise OracleInconclusive(
            f"no unit-valued vector of height <= {bound} found while "
            f"diagonalizing a {n - i}-dimensional block over Z[1/2]"
        )
    t_int = _with_complement(_scaled_int_grid([row[i:] for row in ws.a[i:]]), [list(v)])
    t = [[Fraction(c) for c in row] for row in t_int]
    ws.apply(_pembed(ws.spec, t, n, i))
    if not _dyadic_unit(ws.a[i][i]):
        raise IdentityViolated("the unit-vector pivot step left a non-unit pivot")



def _diag_dyadic(grid: Sequence[Sequence[Fraction]], bound: int) -> _Congruence:
    spec = RingSpec.dyadic()
    ws = _Congruence(spec, grid)
    a = ws.a
    n = len(a)
    for i in range(n):
        if not _dyadic_unit(a[i][i]):
            j = next((k for k in range(i + 1, n) if _dyadic_unit(a[k][k])), None)
            if j is not None:
                ws.swap(i, j)
            else:
                _dyadic_block_pivot(ws, i, bound)
        a = ws.a  # apply() may have replaced the grid object
        d = a[i][i]
        for j in range(i + 1, n):
            if a[i][j]:
                ws.addmul(j, i, -a[i][j] / d)
    # units of Z[1/2] are +-2^k; squares of units absorb even powers
    for i in range(n):
        e = _v2_of_unit(a[i][i])
        s = e // 2
        if s:
            ws.scalecol(i, Fraction(1, 1 << s) if s > 0 else Fraction(1 << (-s)))
    return ws


def _reduce_rational_diag(ws: _Congruence) -> None:
    """Rescale basis vectors so diagonal entries become squarefree integers.

    Entry values move by squares only, so nothing Witt-theoretic changes,
    but isotropy witnesses get dramatically smaller coordinates, which is
    what keeps the bounded search effective.
    """
    a = ws.a
    for i in range(len(a)):
        q = a[i][i]
        if q.denominator != 1:
            ws.scalecol(i, Fraction(q.denominator))
        s = square_part(a[i][i].numerator)
        if s > 1:
            ws.scalecol(i, Fraction(1, s))


def diagonalize(f: GramForm) -> tuple[InvMatrix, GramForm]:
    """Congruence-diagonalize a symmetric form.

    Returns (P, D) with P*.gram.P = D.gram, D diagonal.  Over Z[1/2] the
    diagonal entries are normalized into {+-1, +-2} by unit-square scaling.
    """
    spec = f.ring
    if f.epsilon != 1:
        raise SpecMismatch("only symmetric forms diagonalize; got epsilon = -1")
    if not (spec.is_field or spec.kind == DYADIC):
        raise SpecMismatch(f"diagonalization not supported over {spec}")
    if spec.kind == DYADIC:
        ws = _diag_dyadic(f.gram.cells, _PIVOT_BOUND)
    else:
        ws = _diag_field(spec, f.gram.cells)
    n = f.dim
    p = InvMatrix(spec, tuple(map(tuple, ws.p)), n, n)
    d = InvMatrix(spec, tuple(map(tuple, ws.a)), n, n)
    if p.conj_transpose() * f.gram * p != d:
        raise IdentityViolated("diagonalization certificate P*.G.P = D failed")
    return p, GramForm(d, 1)



def _diag_for_search(spec: RingSpec, grid: Sequence[Sequence[Any]]) -> _Congruence:
    if spec.kind == DYADIC:
        return _diag_dyadic(grid, _PIVOT_BOUND)
    ws = _diag_field(spec, grid)
    if spec.kind == RATIONALS:
        _reduce_rational_diag(ws)
    return ws


def _dual_vector(spec: RingSpec, grid: list[list[Any]], x: list[Any]) -> list[Any]:
    """Some w with B(x, w) = 1, for primitive x in a unimodular form."""
    n = len(grid)
    row = _matmul(spec, [x], grid)[0]
    if spec.kind != DYADIC:
        j = next(k for k in range(n) if not _is_zero(spec, row[k]))
        w = [spec.zero] * n
        w[j] = _inv(spec, row[j])
        return w
    denom = math.lcm(*(c.denominator for c in row))
    ints = [int(c * denom) for c in row]
    g, coeffs = bezout_vector(ints)
    # the functional B(x, .) is onto, so the odd part of g must be trivial
    if not g or g & (g - 1):
        raise IdentityViolated(f"B(x, .) is not onto: its gcd is {g}")
    scale = Fraction(denom, g)
    return [Fraction(c) * scale for c in coeffs]


def _complete_pair(
    spec: RingSpec, grid: list[list[Any]], x: list[Any], w: list[Any]
) -> list[list[Any]]:
    """An invertible matrix whose first two columns are exactly x and w;
    over Z[1/2] the others span their orthogonal complement in ``grid``."""
    m = len(x)
    if spec.kind == DYADIC:
        xi = [int(c) for c in x]
        dw = math.lcm(*(c.denominator for c in w))
        wi = [int(c * dw) for c in w]
        t_int = _with_complement(_scaled_int_grid(grid), [xi, wi])
        t = [[Fraction(c) for c in row] for row in t_int]
        for i in range(m):
            t[i][0] = x[i]
            t[i][1] = w[i]
        return t
    j1 = next(k for k in range(m) if not _is_zero(spec, x[k]))
    c = _mul(spec, w[j1], _inv(spec, x[j1]))
    wred = [_add(spec, w[k], _neg(spec, _mul(spec, c, x[k]))) for k in range(m)]
    j2 = next(k for k in range(m) if not _is_zero(spec, wred[k]))
    one, zero = spec.one, spec.zero
    t = [[x[i], w[i]] for i in range(m)]
    for k in range(m):
        if k in (j1, j2):
            continue
        for i in range(m):
            t[i].append(one if i == k else zero)
    return t


def _split_pair(ws: _Congruence, i: int, eps: int) -> None:
    """e_(i+1) /= B(e_i, e_(i+1)), then e_l -= eps B(e_(i+1), e_l) e_i +
    B(e_i, e_l) e_(i+1) for every l > i + 1, for an isotropic pair."""
    spec, n = ws.spec, len(ws.a)
    one, zero = spec.one, spec.zero
    ws.apply(_pembed(spec, [[one, zero], [zero, _inv(spec, ws.a[i][i + 1])]], n, i))
    a, e = ws.a, _pid(spec, n)
    for l in range(i + 2, n):
        e[i][l] = _neg(spec, _mul(spec, canon_payload(spec, eps), a[i + 1][l]))
        e[i + 1][l] = _neg(spec, a[i][l])
    ws.apply(e)


def witt_decompose(
    f: GramForm, height_bound: int = 6, require_certified: bool = False
) -> WittDecomposition:
    """Diagonalize once; split each plane inside the support of its
    witness and diagonalize the rest of that block again (symmetric), or
    pair e_off with the first coordinate it meets (skew)."""
    spec = f.ring
    if spec.kind not in _SEARCH_RINGS:
        raise SpecMismatch(f"Witt decomposition not supported over {spec}")
    if height_bound < 1:
        raise IllFormed("height_bound must be a positive integer")
    eps, n = f.epsilon, f.dim
    cells = [list(row) for row in f.gram.cells]
    ws = _diag_for_search(spec, cells) if eps == 1 else _Congruence(spec, cells)
    off = 0
    while off < n:
        a = ws.a
        if eps == 1:
            xd = _isotropic_on_diagonal(spec, [a[k][k] for k in range(off, n)], height_bound)
            if xd is None:
                break
            support = [k for k, c in enumerate(xd) if c]
            for r, k in enumerate(support):
                ws.swap(off + r, off + k)
            g = math.gcd(*(xd[k] for k in support))
            x = [canon_payload(spec, xd[k] // g) for k in support]
            m = len(x)
            blk = [r[off : off + m] for r in ws.a[off : off + m]]
            w = _dual_vector(spec, blk, x)
            # shear w so its own value vanishes: q(w - (q(w)/2) x) = 0
            half_q = _mul(spec, _qval(spec, blk, w), canon_payload(spec, Fraction(1, 2)))
            w = [_add(spec, w[k], _neg(spec, _mul(spec, half_q, x[k]))) for k in range(m)]
            ws.apply(_pembed(spec, _complete_pair(spec, blk, x, w), n, off))
            _split_pair(ws, off, 1)
            if m > 2:
                rest = [r[off + 2 : off + m] for r in ws.a[off + 2 : off + m]]
                ws.apply(_pembed(spec, _diag_for_search(spec, rest).p, n, off + 2))
        else:
            unit = _dyadic_unit if spec.kind == DYADIC else (lambda c: not _is_zero(spec, c))
            j = next((l for l in range(off + 1, n) if unit(a[off][l])), None)
            if j is None:
                current = [r[off:] for r in a[off:]]
                x = [spec.one] + [spec.zero] * (n - off - 1)
                ws.apply(_pembed(spec, _complete_pair(spec, current, x, _dual_vector(spec, current, x)), n, off))
            else:
                ws.swap(off + 1, j)
            _split_pair(ws, off, eps)
        a = ws.a
        plane = [[spec.zero, spec.one], [canon_payload(spec, eps), spec.zero]]
        if [r[off : off + 2] for r in a[off : off + 2]] != plane or any(
            not _is_zero(spec, a[off + r][l]) or not _is_zero(spec, a[l][off + r])
            for r in (0, 1)
            for l in range(off + 2, n)
        ):
            raise IdentityViolated("the hyperbolic pair did not split off")
        off += 2

    aniso = [row[off:] for row in ws.a[off:]]
    aniso_matrix = InvMatrix(spec, tuple(map(tuple, aniso)), len(aniso), len(aniso))
    basis = InvMatrix(spec, tuple(map(tuple, ws.p)), n, n)
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


def _qval(spec: RingSpec, grid: list[list[Any]], v: list[Any]) -> Any:
    """The quadratic value v^T . grid . v."""
    return _matmul(spec, _matmul(spec, [v], grid), [[c] for c in v])[0][0]


def _bezout2(x: int, y: int) -> tuple[int, int, int]:
    g, coeffs = bezout_vector([x, y])
    return g, coeffs[0], coeffs[1]
