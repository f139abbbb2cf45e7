"""Epsilon-symmetric bilinear forms and their hyperbolic splitting.

A form is a square Gram matrix over one of the scalar rings together with a
sign epsilon = +-1.  The module supplies congruence diagonalization (fields
and Z[1/2]), a bounded isotropy search, and Witt decomposition: hyperbolic
planes are split off isotropic vectors until what is left refuses to
represent zero.  Over a prime field the search is exhaustive, so a negative
answer is a proof.  Over Q and Z[1/2] a witness has the least height of
any, and a negative answer only says "nothing within the height bound";
decompositions carry a ``certified`` flag and callers that need a proof can
demand one.  Which isotropic vector is split off is not promised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Any, Iterator, Sequence

from .errors import (
    DegenerateForm,
    IdentityViolated,
    IllFormed,
    OddRank,
    OracleInconclusive,
    SpecMismatch,
)
from .intlinalg import (
    bezout_vector,
    int_inverse_unimodular,
    smith_normal_form,
    square_part,
)
from .matrices import InvMatrix, _matmul
from .rings import (
    DYADIC,
    PRIME_FIELD,
    RATIONALS,
    RingElem,
    RingSpec,
    _add,
    _inv,
    _is_zero,
    _mul,
    _neg,
    _one,
    _zero,
    canon_payload,
    payload_from_json,
    payload_to_json,
)

# Rings the isotropy machinery knows how to search.  All three carry the
# trivial involution, so "conjugate transpose" below is plain transpose.
_SEARCH_RINGS = (PRIME_FIELD, RATIONALS, DYADIC)

# Height cap for the internal pivot searches inside dyadic diagonalization.
# These searches only run when no unit pivot is available by elimination,
# which at our matrix sizes essentially never happens.
_PIVOT_BOUND = 12


class GramForm:
    """A nondegenerate epsilon-symmetric form, stored as its Gram matrix."""

    __slots__ = ("ring", "epsilon", "gram")

    def __init__(self, gram: InvMatrix, epsilon: int = 1):
        if epsilon not in (1, -1):
            raise IllFormed(f"epsilon must be +1 or -1, got {epsilon!r}")
        if gram.nrows != gram.ncols:
            raise IllFormed("Gram matrix must be square")
        star = gram.conj_transpose()
        if star != (gram if epsilon == 1 else -gram):
            raise IllFormed("Gram matrix is not epsilon-symmetric")
        if not gram.det().is_unit():
            raise DegenerateForm("Gram determinant is not a unit")
        object.__setattr__(self, "ring", gram.spec)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("GramForm is immutable")

    @classmethod
    def diagonal(
        cls, spec: RingSpec, entries: Sequence[Any], epsilon: int = 1
    ) -> "GramForm":
        return cls(InvMatrix.diagonal(spec, entries), epsilon)

    @classmethod
    def from_rows(
        cls, spec: RingSpec, rows: Sequence[Sequence[Any]], epsilon: int = 1
    ) -> "GramForm":
        return cls(InvMatrix.from_rows(spec, rows), epsilon)

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def bilinear(self, v: Sequence[Any], w: Sequence[Any]) -> RingElem:
        """B(v, w) with the involution applied to the left slot."""
        spec = self.ring
        vp = [_cook_scalar(spec, c) for c in v]
        wp = [_cook_scalar(spec, c) for c in w]
        if len(vp) != self.dim or len(wp) != self.dim:
            raise IllFormed("vector length does not match the form")
        acc, involute = _zero(spec), spec.ops.involute
        for i, row in enumerate(self.gram.cells):
            vi = involute(vp[i])
            if _is_zero(spec, vi):
                continue
            for j, g in enumerate(row):
                if _is_zero(spec, g) or _is_zero(spec, wp[j]):
                    continue
                acc = _add(spec, acc, _mul(spec, vi, _mul(spec, g, wp[j])))
        return RingElem(spec, acc, _raw=True)

    def evaluate(self, v: Sequence[Any]) -> RingElem:
        """The quadratic value B(v, v)."""
        return self.bilinear(v, v)

    def is_diagonal(self) -> bool:
        return all(
            _is_zero(self.ring, c)
            for i, row in enumerate(self.gram.cells)
            for j, c in enumerate(row)
            if i != j
        )

    def diagonal_entries(self) -> tuple[RingElem, ...]:
        if not self.is_diagonal():
            raise IllFormed("form is not diagonal")
        return tuple(self.gram.entry(i, i) for i in range(self.dim))

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "epsilon": self.epsilon,
            "gram": [
                [payload_to_json(self.ring, c) for c in row]
                for row in self.gram.cells
            ],
        }

    @classmethod
    def from_json(cls, obj: Any) -> "GramForm":
        if not isinstance(obj, dict) or "ring" not in obj:
            raise IllFormed("form descriptor must be an object with a 'ring'")
        spec = RingSpec.from_json(obj["ring"])
        epsilon = obj.get("epsilon", 1)
        if epsilon not in (1, -1):
            raise IllFormed(f"epsilon must be 1 or -1, got {epsilon!r}")
        if "diag" in obj:
            if not isinstance(obj["diag"], list):
                raise IllFormed("'diag' must be a list of entries")
            entries = [_entry_from_json(spec, e) for e in obj["diag"]]
            return cls(InvMatrix.diagonal(spec, entries), epsilon)
        if "gram" in obj:
            rows = obj["gram"]
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise IllFormed("'gram' must be a list of rows")
            grid = [[_entry_from_json(spec, e) for e in row] for row in rows]
            return cls(InvMatrix.from_rows(spec, grid), epsilon)
        raise IllFormed("form descriptor needs either 'gram' or 'diag'")

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.epsilon == other.epsilon
            and self.gram == other.gram
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.epsilon, self.gram))

    def __repr__(self) -> str:
        sign = "+1" if self.epsilon == 1 else "-1"
        if self.dim and self.is_diagonal():
            inner = ", ".join(repr(e) for e in self.diagonal_entries())
            return f"GramForm({self.ring}, eps={sign}, diag=[{inner}])"
        return f"GramForm({self.ring}, eps={sign}, gram={self.gram!r})"


@dataclass(frozen=True)
class WittDecomposition:
    """Result of splitting a form into hyperbolic planes plus a remainder.

    ``change_of_basis`` conjugates the original Gram matrix into
    ``hyperbolic_rank`` standard planes followed by the anisotropic block.
    ``certified`` records whether the anisotropy of the remainder is proved
    (always over a prime field, only in favourable cases over Q / Z[1/2]).
    """

    hyperbolic_rank: int
    anisotropic: GramForm
    change_of_basis: InvMatrix
    certified: bool


def _cook_scalar(spec: RingSpec, entry: Any) -> Any:
    if isinstance(entry, RingElem):
        if entry.spec != spec:
            raise SpecMismatch(f"scalar over {entry.spec} used over {spec}")
        return entry.payload
    return canon_payload(spec, entry)


def _entry_from_json(spec: RingSpec, leaf: Any) -> Any:
    if isinstance(leaf, bool):
        raise IllFormed("booleans are not ring elements")
    if isinstance(leaf, int):
        return canon_payload(spec, leaf)
    return payload_from_json(spec, leaf)


# -- payload-level matrix helpers --------------------------------------------
#
# The splitting algorithms run on mutable grids of raw payloads and only wrap
# results in InvMatrix / GramForm at the end.  Products go through the shared
# kernel ``_matmul``; every ring searched here has the trivial involution, so
# a congruence t* a t is transpose(t) * a * t.


def _pid(spec: RingSpec, n: int) -> list[list[Any]]:
    one, zero = _one(spec), _zero(spec)
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


# -- diagonalization ----------------------------------------------------------


def _diag_field(spec: RingSpec, grid: Sequence[Sequence[Any]]) -> _Congruence:
    ws = _Congruence(spec, grid)
    a = ws.a
    n = len(a)
    one = _one(spec)
    for i in range(n):
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


def _signed_vectors(n: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors ordered by height, then lexicographically with the
    per-coordinate order 0, 1, -1, 2, -2, ..."""
    for h in range(1, bound + 1):
        seq = [0] + [c for k in range(1, h + 1) for c in (k, -k)]
        for v in itertools.product(seq, repeat=n):
            if max(abs(c) for c in v) == h:
                yield v


def _scaled_int_grid(grid: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    denom = math.lcm(*(c.denominator for row in grid for c in row)) if grid else 1
    return [[int(c * denom) for c in row] for row in grid]


def _unit_vector_search(
    grid: Sequence[Sequence[Fraction]], bound: int
) -> tuple[int, ...] | None:
    """First integer vector (height order) whose quadratic value is a unit."""
    m = len(grid)
    c = _scaled_int_grid(grid)
    for v in _signed_vectors(m, bound):
        val = sum(c[r][r] * v[r] * v[r] for r in range(m))
        val += 2 * sum(
            c[r][s] * v[r] * v[s] for r in range(m) for s in range(r + 1, m)
        )
        if val and abs(val) & (abs(val) - 1) == 0:
            return v
    return None


def _complete_dyadic_columns(cols: list[list[int]], m: int) -> list[list[int]]:
    """Extend integer columns spanning a Z[1/2]-direct summand to an m x m
    matrix that is invertible over Z[1/2] (determinant +- a power of 2)."""
    k = len(cols)
    n_grid = [[col[i] for col in cols] for i in range(m)]
    u, d, _ = smith_normal_form(n_grid)
    for i in range(k):
        di = d[i][i]
        if di <= 0 or di & (di - 1):
            raise IdentityViolated("columns do not span a direct summand")
    uinv = int_inverse_unimodular(u)
    out = [row[:] for row in n_grid]
    for j in range(k, m):
        for i in range(m):
            out[i].append(uinv[i][j])
    return out


def _dyadic_block_pivot(ws: _Congruence, i: int, bound: int) -> None:
    """Make a[i][i] a unit when no trailing diagonal entry is one.

    Preferred route: find a 2x2 principal block with unit determinant,
    isolate it, and diagonalize it by a tiny search.  Fallback: bounded
    search for a unit-valued vector in the whole trailing block.
    """
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
    if pair is not None:
        r, s = pair
        ws.swap(i, r)
        if s == i:
            s = r
        ws.swap(i + 1, s)
        aa, u, bb = a[i][i], a[i][i + 1], a[i + 1][i + 1]
        det2 = aa * bb - u * u
        for l in range(i + 2, n):
            p_, q_ = a[i][l], a[i + 1][l]
            c1 = (bb * p_ - u * q_) / det2
            c2 = (aa * q_ - u * p_) / det2
            if c1:
                ws.addmul(l, i, -c1)
            if c2:
                ws.addmul(l, i + 1, -c2)
        for x, y in _signed_vectors(2, 8):
            val = aa * x * x + 2 * u * x * y + bb * y * y
            if val and _dyadic_unit(val):
                g, alpha, beta = _bezout2(x, y)
                # alpha*x + beta*y = g, so det of the 2x2 change is g = 2^j
                if g & (g - 1):
                    raise IdentityViolated(f"pivot change has determinant {g}")
                t2 = [
                    [Fraction(x), Fraction(-beta)],
                    [Fraction(y), Fraction(alpha)],
                ]
                ws.apply(_pembed(ws.spec, t2, n, i))
                if not _dyadic_unit(ws.a[i][i]):
                    raise IdentityViolated("the 2x2 pivot step left a non-unit pivot")
                return
    # general fallback, bounded and honest about giving up
    sub = [[a[r][c] for c in range(i, n)] for r in range(i, n)]
    v = _unit_vector_search(sub, bound)
    if v is None:
        raise OracleInconclusive(
            f"no unit-valued vector of height <= {bound} found while "
            f"diagonalizing a {n - i}-dimensional block over Z[1/2]"
        )
    t_int = _complete_dyadic_columns([list(v)], n - i)
    t = [[Fraction(c) for c in row] for row in t_int]
    ws.apply(_pembed(ws.spec, t, n, i))
    if not _dyadic_unit(ws.a[i][i]):
        raise IdentityViolated("the unit-vector pivot step left a non-unit pivot")


def _bezout2(x: int, y: int) -> tuple[int, int, int]:
    g, coeffs = bezout_vector([x, y])
    return g, coeffs[0], coeffs[1]


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


# -- isotropy -----------------------------------------------------------------


def isotropy_oracle(
    f: GramForm, height_bound: int = 4
) -> tuple[RingElem, ...] | None:
    """Search for a nonzero v with B(v, v) = 0.

    Over a prime field the search is exhaustive (all p^n vectors), so None
    is a proof of anisotropy.  Over Q and Z[1/2] integer vectors with
    entries of absolute value <= height_bound are tried; any rational
    witness rescales to an integer one, so only the bound is a restriction,
    and None is not a proof.  Vectors are ordered by height, then
    lexicographically with each coordinate running 0, 1, -1, 2, -2, ...;
    over a prime field plain lexicographic order on residues 0..p-1 is
    used.  The first witness in that order is returned.
    """
    spec = f.ring
    if spec.kind not in _SEARCH_RINGS:
        raise SpecMismatch(f"isotropy search not supported over {spec}")
    n = f.dim
    if n == 0:
        return None
    g = f.gram.cells
    if spec.kind == PRIME_FIELD:
        p = spec.p
        for v in itertools.product(range(p), repeat=n):
            if not any(v):
                continue
            val = 0
            for i in range(n):
                if v[i]:
                    val += v[i] * sum(g[i][j] * v[j] for j in range(n) if v[j])
            if val % p == 0:
                return tuple(RingElem(spec, c, _raw=True) for c in v)
        return None
    if height_bound < 1:
        raise IllFormed("height_bound must be a positive integer")
    ig = _scaled_int_grid(g)
    for v in _signed_vectors(n, height_bound):
        val = 0
        for i in range(n):
            if v[i]:
                val += v[i] * sum(ig[i][j] * v[j] for j in range(n) if v[j])
        if val == 0:
            return tuple(RingElem(spec, Fraction(c), _raw=True) for c in v)
    return None


def _height_shell(k: int, h: int) -> Iterator[tuple[int, ...]]:
    """Each vector of length k with entries in 0..h and largest entry h,
    once: the entries before the first h are below h."""
    for i in range(k):
        for head in itertools.product(range(h), repeat=i):
            for tail in itertools.product(range(h + 1), repeat=k - 1 - i):
                yield head + (h,) + tail


def _isotropic_on_diagonal(
    spec: RingSpec, diag: list[Any], bound: int
) -> tuple[int, ...] | None:
    """A nonzero integer vector v with sum(diag[i] * v[i]^2) = 0, or None.

    Changing signs of entries keeps the value, so entries run over 0..h.
    The two halves of the coordinates meet in the middle: height by
    height, each half's vectors of that exact height are looked up in the
    other half's table of first vector per value, then entered in their
    own; each table starts with its zero vector, which so pairs only with
    a nonzero one.  Over F_p the height runs to (p-1)/2, so with signs
    every residue is covered, and values are taken mod p: the search is
    exhaustive and None proves anisotropy (``bound`` is unused).  Over Q
    and Z[1/2] a witness has the least height of any, if that is at most
    ``bound``; None says only that there is none within it.  Which witness
    of that height is returned is not promised.
    """
    n = len(diag)
    if n < 2:
        return None
    if spec.kind == PRIME_FIELD:
        coeffs, top, mod = diag, (spec.p - 1) // 2, spec.p
    else:
        denom = math.lcm(*(d.denominator for d in diag))
        coeffs, top = [int(d * denom) for d in diag], bound
        # above |B(v, v)| for every v within the bound, so two halves'
        # values add to 0 mod it exactly when they do as integers
        mod = bound * bound * sum(map(abs, coeffs)) + 1
    nl = (n + 1) // 2
    halves = (coeffs[:nl], coeffs[nl:])
    tables = ({0: (0,) * nl}, {0: (0,) * (n - nl)})
    for h in range(1, top + 1):
        for side, d in enumerate(halves):
            own, other = tables[side], tables[1 - side]
            for v in _height_shell(len(d), h):
                s = sum(map(mul, d, map(mul, v, v))) % mod
                w = other.get(-s % mod)
                if w is not None:
                    return v + w if side == 0 else w + v
                own.setdefault(s, v)
    return None


# -- hyperbolic splitting -----------------------------------------------------


def _primitivize(spec: RingSpec, v: list[Any]) -> list[Any]:
    if spec.kind == PRIME_FIELD:
        return v
    denom = math.lcm(*(c.denominator for c in v))
    ints = [int(c * denom) for c in v]
    g = math.gcd(*ints)
    return [Fraction(c // g) for c in ints]


def _dual_vector(spec: RingSpec, grid: list[list[Any]], x: list[Any]) -> list[Any]:
    """Some w with B(x, w) = 1, for primitive x in a unimodular form."""
    n = len(grid)
    row = _matmul(spec, [x], grid)[0]
    if spec.kind != DYADIC:
        j = next(k for k in range(n) if not _is_zero(spec, row[k]))
        w = [_zero(spec)] * n
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
    spec: RingSpec, x: list[Any], w: list[Any]
) -> list[list[Any]]:
    """An invertible matrix whose first two columns are exactly x and w."""
    m = len(x)
    if spec.kind == DYADIC:
        xi = [int(c) for c in x]
        dw = math.lcm(*(c.denominator for c in w))
        wi = [int(c * dw) for c in w]
        t_int = _complete_dyadic_columns([xi, wi], m)
        t = [[Fraction(c) for c in row] for row in t_int]
        for i in range(m):
            t[i][0] = x[i]
            t[i][1] = w[i]
        return t
    j1 = next(k for k in range(m) if not _is_zero(spec, x[k]))
    c = _mul(spec, w[j1], _inv(spec, x[j1]))
    wred = [_add(spec, w[k], _neg(spec, _mul(spec, c, x[k]))) for k in range(m)]
    j2 = next(k for k in range(m) if not _is_zero(spec, wred[k]))
    one, zero = _one(spec), _zero(spec)
    t = [[x[i], w[i]] for i in range(m)]
    for k in range(m):
        if k in (j1, j2):
            continue
        for i in range(m):
            t[i].append(one if i == k else zero)
    return t


def witt_decompose(
    f: GramForm, height_bound: int = 6, require_certified: bool = False
) -> WittDecomposition:
    """Split off hyperbolic planes until no isotropic vector is found.

    The search bound applies to the isotropy searches (on diagonalized
    coordinates over Q / Z[1/2]); over a prime field everything is
    exhaustive.  When the leftover block cannot be proved anisotropic the
    result is returned with ``certified=False``, or OracleInconclusive is
    raised if ``require_certified`` was set.
    """
    spec = f.ring
    if spec.kind not in _SEARCH_RINGS:
        raise SpecMismatch(f"Witt decomposition not supported over {spec}")
    if height_bound < 1:
        raise IllFormed("height_bound must be a positive integer")
    eps = f.epsilon
    n = f.dim
    one = _one(spec)
    p_total = _pid(spec, n)
    current = [list(row) for row in f.gram.cells]
    hyp = 0
    aniso: list[list[Any]] = []
    while True:
        m = len(current)
        if m == 0:
            break
        if eps == 1:
            if spec.kind == DYADIC:
                ws = _diag_dyadic(current, height_bound + _PIVOT_BOUND)
            else:
                ws = _diag_field(spec, current)
                if spec.kind == RATIONALS:
                    _reduce_rational_diag(ws)
            xd = _isotropic_on_diagonal(
                spec, [ws.a[k][k] for k in range(m)], height_bound
            )
            if xd is None:
                p_total = _matmul(spec, p_total, _pembed(spec, ws.p, n, n - m))
                aniso = ws.a
                break
            x = [r[0] for r in _matmul(spec, ws.p, [[canon_payload(spec, c)] for c in xd])]
        else:
            # skew: every vector is isotropic, and m is even by nondegeneracy
            x = [one] + [_zero(spec)] * (m - 1)
        x = _primitivize(spec, x)
        w = _dual_vector(spec, current, x)
        if eps == 1:
            # shear w so its own value vanishes: q(w - (q(w)/2) x) = 0
            half_q = _mul(spec, _qval(spec, current, w), canon_payload(spec, Fraction(1, 2)))
            w = [_add(spec, w[k], _neg(spec, _mul(spec, half_q, x[k]))) for k in range(m)]
        t = _complete_pair(spec, x, w)
        a1 = _matmul(spec, list(zip(*t)), _matmul(spec, current, t))
        e = _pid(spec, m)
        for l in range(2, m):
            # kill B(x, v_l) and B(w, v_l) against the hyperbolic pair
            beta = a1[0][l]
            alpha = a1[1][l] if eps == 1 else _neg(spec, a1[1][l])
            e[0][l] = _neg(spec, alpha)
            e[1][l] = _neg(spec, beta)
        step = _matmul(spec, t, e)
        a2 = _matmul(spec, list(zip(*step)), _matmul(spec, current, step))
        # the first two basis vectors must now span a standard hyperbolic plane
        # orthogonal to the rest
        plane = [[_zero(spec), one], [canon_payload(spec, eps), _zero(spec)]]
        if [r[:2] for r in a2[:2]] != plane or any(
            not _is_zero(spec, a2[r][l]) or not _is_zero(spec, a2[l][r])
            for r in (0, 1)
            for l in range(2, m)
        ):
            raise IdentityViolated("the hyperbolic pair did not split off")
        current = [row[2:] for row in a2[2:]]
        p_total = _matmul(spec, p_total, _pembed(spec, step, n, n - m))
        hyp += 1

    aniso_matrix = InvMatrix(spec, tuple(map(tuple, aniso)), len(aniso), len(aniso))
    aniso_form = GramForm(aniso_matrix, eps)
    basis = InvMatrix(spec, tuple(map(tuple, p_total)), n, n)
    blocks = [_hyperbolic_matrix(spec, 1, eps) for _ in range(hyp)]
    if aniso_matrix.nrows:
        blocks.append(aniso_matrix)
    expected = (
        InvMatrix.block_diag(blocks) if blocks else InvMatrix.from_rows(spec, [])
    )
    if basis.conj_transpose() * f.gram * basis != expected:
        raise IdentityViolated("Witt decomposition certificate failed to re-multiply")
    certified = _certify(spec, eps, aniso)
    if require_certified and not certified:
        raise OracleInconclusive(
            f"anisotropy of the {len(aniso)}-dimensional remainder is not "
            f"certified within height bound {height_bound}"
        )
    return WittDecomposition(hyp, aniso_form, basis, certified)


def _qval(spec: RingSpec, grid: list[list[Any]], v: list[Any]) -> Any:
    """The quadratic value v^T . grid . v."""
    return _matmul(spec, _matmul(spec, [v], grid), [[c] for c in v])[0][0]


def _certify(spec: RingSpec, eps: int, aniso: list[list[Any]]) -> bool:
    if spec.kind == PRIME_FIELD or len(aniso) <= 1 or eps == -1:
        return True
    # diagonal by construction; definite forms cannot represent zero
    entries = [aniso[i][i] for i in range(len(aniso))]
    return all(c > 0 for c in entries) or all(c < 0 for c in entries)


def _hyperbolic_matrix(spec: RingSpec, n: int, eps: int) -> InvMatrix:
    rows = []
    for i in range(n):
        rows.append([0] * n + [1 if j == i else 0 for j in range(n)])
    for i in range(n):
        rows.append([eps if j == i else 0 for j in range(n)] + [0] * n)
    return InvMatrix.from_rows(spec, rows)


def hyperbolic(n: int, epsilon: int, ring: RingSpec) -> GramForm:
    """The rank-n hyperbolic form [[0, I], [eps*I, 0]] (size 2n)."""
    if n < 1:
        raise IllFormed("hyperbolic rank must be at least 1")
    if epsilon not in (1, -1):
        raise IllFormed(f"epsilon must be +1 or -1, got {epsilon!r}")
    return GramForm(_hyperbolic_matrix(ring, n, epsilon), epsilon)


def interchange_isometry(n: int, epsilon: int, ring: RingSpec) -> InvMatrix:
    """The swap [[0, I], [eps*I, 0]] of the two lagrangian summands of the
    hyperbolic form, checked to be an isometry with square eps*I."""
    if n < 1:
        raise IllFormed("rank must be at least 1")
    if epsilon not in (1, -1):
        raise IllFormed(f"epsilon must be +1 or -1, got {epsilon!r}")
    sigma = _hyperbolic_matrix(ring, n, epsilon)
    h = sigma  # the isometry and the Gram matrix coincide here
    if sigma.conj_transpose() * h * sigma != h:
        raise IdentityViolated("the interchange is not an isometry")
    if sigma * sigma != InvMatrix.identity(ring, 2 * n).scale(epsilon):
        raise IdentityViolated("the interchange does not square to eps*I")
    return sigma


def orth_sum(f: GramForm, g: GramForm) -> GramForm:
    if f.ring != g.ring:
        raise SpecMismatch("orthogonal sum needs both forms over one ring")
    if f.epsilon != g.epsilon:
        raise SpecMismatch("orthogonal sum needs matching epsilon")
    if f.dim == 0:
        return g
    if g.dim == 0:
        return f
    return GramForm(InvMatrix.block_diag([f.gram, g.gram]), f.epsilon)


def tensor(f: GramForm, g: GramForm) -> GramForm:
    if f.ring != g.ring:
        raise SpecMismatch("tensor product needs both forms over one ring")
    if f.epsilon != 1 or g.epsilon != 1:
        raise SpecMismatch("tensor product is defined for symmetric forms")
    return GramForm(InvMatrix.kron(f.gram, g.gram), 1)


def symplectic_basis(f: GramForm) -> InvMatrix:
    """A basis putting a nondegenerate skew form over a field into
    block-diagonal [[0,1],[-1,0]] shape (its Witt class is always zero)."""
    if f.epsilon != -1:
        raise SpecMismatch("symplectic basis needs epsilon = -1")
    if not f.ring.is_field:
        raise SpecMismatch(f"symplectic basis needs a field, got {f.ring}")
    if f.dim % 2:
        raise OddRank("nondegenerate skew forms have even rank")
    dec = witt_decompose(f)
    if dec.anisotropic.dim or 2 * dec.hyperbolic_rank != f.dim:
        raise IdentityViolated("a nondegenerate skew form did not split completely")
    return dec.change_of_basis
