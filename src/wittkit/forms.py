"""Epsilon-symmetric bilinear forms and their hyperbolic splitting.

A form is a square Gram matrix over one of the scalar rings together with a
sign epsilon = +-1.  The module supplies congruence diagonalization (fields
and Z[1/2]: one loop, which pivots on units of the ring, over Q on the
diagonal one a / b of least |a| b, and over Z[1/2] searches for a pivot up
to one height, ``_PIVOT_BOUND``), isotropic vectors of diagonal forms, and
Witt decomposition: a symmetric form is diagonalized once, and hyperbolic
planes are split off isotropic vectors, each inside the diagonal block of
its witness's support, until what is left refuses to represent zero.  Over
Z[1/2] a pivot vector or a hyperbolic pair is split off with a basis of its
orthogonal complement, L = P + P^perp, read off one Hermite form
(``_with_complement``).  A form is immutable, and its checked
diagonalization is computed once and kept on it as long as it lives:
``diagonalize``, ``invariants.witt_class`` and ``witt_decompose`` share it,
or share its refusal.  The certificates P* G P = D and basis* G basis =
H^h + A are decided by the congruence test of ``matrices``
(``_congruent_to``), with the integer grids as one slice and X = P^T.  Over
a prime field a witness comes from a square root mod p, with no search, so
a negative answer is a proof.  Over Q and Z[1/2] a definite diagonal, and
<a, b> with -ab not a square, are anisotropic; otherwise a witness has the
least height of any, and a negative answer only says "nothing within the
height bound", which bounds these isotropy searches and nothing else;
decompositions carry a ``certified`` flag and callers that need a proof can
demand one.  Which isotropic vector is split off is not promised.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt, lcm
from operator import mul

from .errors import (
    BudgetExceeded,
    DegenerateForm,
    IdentityViolated,
    IllFormed,
    OddRank,
    OracleInconclusive,
    SpecMismatch,
)
from .intlinalg import (
    bezout_vector,
    columns_to_matrix,
    identity_int,
    int_det,
    kernel_basis_int,
    least_nonresidue,
    legendre,
    matmul_int,
    square_part,
)
from .matrices import InvMatrix, _congruent_to, _cook, _reduced
from .rings import (
    DYADIC,
    PRIME_FIELD,
    RATIONALS,
    RingElem,
    RingSpec,
    _Record,
    _is_power_of_two,
    canon_payload,
    payload_from_json,
    payload_to_json,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Iterator, Sequence

# Rings the isotropy machinery knows how to search.  All three carry the
# trivial involution, so "conjugate transpose" below is plain transpose.
_SEARCH_RINGS = (PRIME_FIELD, RATIONALS, DYADIC)

# Height cap for the pivot searches inside dyadic diagonalization, the one
# bound for diagonalize, witt_class and witt_decompose.  They run when no
# diagonal entry and no 2x2 principal block is a unit, which dense dyadic
# forms reach often; the unit-vector search is also held to _SEARCH_BUDGET
# vectors.
_PIVOT_BOUND = 18

# The most vectors any search may try before it refuses.
_SEARCH_BUDGET = 1 << 20


def _unit_diagonal(spec: RingSpec, grid: Sequence[Sequence[int]]) -> bool:
    """Whether a square slice over F_p, Q or Z[1/2] is a diagonal of units."""
    unit, n = _is_power_of_two if spec.kind == DYADIC else bool, len(grid)
    return all(unit(row[i]) and row.count(0) == n - 1 for i, row in enumerate(grid))


def _check_int(name: str, value: Any, ok: Sequence[int] | None = None) -> None:
    """IllFormed unless value is an int (not a bool): one of ``ok``, or else positive."""
    if type(value) is not int or (value not in ok if ok else value < 1):
        raise IllFormed(f"{name} must be {'+1 or -1' if ok else 'a positive integer'}, got {value!r}")


class GramForm(_Record):
    """A nondegenerate epsilon-symmetric form, stored as its Gram matrix.

    Over F_p and Q a symmetric Gram matrix, unless a diagonal of units, is
    proved nondegenerate by its checked diagonalization (``_diag``, from
    ``diagonalize``), any other by its determinant.  ``_diag`` and the Witt
    class (``_class``, from ``invariants.witt_class``) are computed once and
    kept as long as the form lives; ==, hash and repr read ``_fields`` only.
    """

    _fields = ("ring", "epsilon", "gram")
    __slots__ = (*_fields, "_diag", "_class")

    def __init__(self, gram: InvMatrix, epsilon: int = 1):
        _check_int("epsilon", epsilon, (1, -1))
        if gram.nrows != gram.ncols:
            raise IllFormed("Gram matrix must be square")
        if not gram._is_eps_adjoint(epsilon):
            raise IllFormed("Gram matrix is not epsilon-symmetric")
        self._set(gram, epsilon)
        if self.ring.kind in _SEARCH_RINGS and _unit_diagonal(self.ring, gram._slice_form()[0][0]):
            return  # nondegenerate as it stands, and diagonalized when asked
        if epsilon == 1 and self.ring.is_field:
            diagonalize(self)  # a zero pivot row is DegenerateForm
        elif not gram.det().is_unit():
            raise DegenerateForm("Gram determinant is not a unit")

    def _set(self, gram: InvMatrix, epsilon: int) -> None:
        for name, value in zip(self.__slots__, (gram.spec, epsilon, gram, None, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _certified(cls, spec: RingSpec, grid: list[list[int]], den: int, epsilon: int) -> "GramForm":
        """The form on the canonical grid / den of a checked congruence
        certificate, which showed it epsilon-symmetric; a diagonal of units,
        so nondegenerate with no determinant taken, or IdentityViolated."""
        if not _unit_diagonal(spec, grid):
            raise IdentityViolated("a certified form is not a diagonal of units")
        f = object.__new__(cls)
        f._set(InvMatrix._from_slices(spec, [grid], den, len(grid), len(grid)), epsilon)
        return f

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
        vp = [_cook(spec, c) for c in v]
        wp = [_cook(spec, c) for c in w]
        if len(vp) != self.dim or len(wp) != self.dim:
            raise IllFormed("vector length does not match the form")
        add, _, mul_, is_zero, involute = spec.ops
        acc = spec.zero
        for vi, row in zip(map(involute, vp), self.gram.cells):
            if is_zero(vi):
                continue
            for g, wj in zip(row, wp):
                if not (is_zero(g) or is_zero(wj)):
                    acc = add(acc, mul_(vi, mul_(g, wj)))
        return RingElem(spec, acc, _raw=True)

    def evaluate(self, v: Sequence[Any]) -> RingElem:
        """The quadratic value B(v, v)."""
        return self.bilinear(v, v)

    def is_diagonal(self) -> bool:
        is_zero = self.ring.ops.is_zero
        return all(is_zero(c) for i, row in enumerate(self.gram.cells) for j, c in enumerate(row) if i != j)

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
        epsilon = obj.get("epsilon", 1)  # checked by the constructor
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

    def __repr__(self) -> str:
        sign = "+1" if self.epsilon == 1 else "-1"
        if self.dim and self.is_diagonal():
            inner = ", ".join(repr(e) for e in self.diagonal_entries())
            return f"GramForm({self.ring}, eps={sign}, diag=[{inner}])"
        return f"GramForm({self.ring}, eps={sign}, gram={self.gram!r})"


class WittDecomposition(_Record):
    """Result of splitting a form into hyperbolic planes plus a remainder.

    ``change_of_basis`` conjugates the original Gram matrix into
    ``hyperbolic_rank`` standard planes followed by the anisotropic block.
    ``certified`` records whether the anisotropy of the remainder is proved
    (always over a prime field, only in favourable cases over Q / Z[1/2]).
    """

    __slots__ = _fields = ("hyperbolic_rank", "anisotropic", "change_of_basis", "certified")

    def __init__(self, hyperbolic_rank: int, anisotropic: GramForm, change_of_basis: InvMatrix, certified: bool):
        object.__setattr__(self, "hyperbolic_rank", hyperbolic_rank)
        object.__setattr__(self, "anisotropic", anisotropic)
        object.__setattr__(self, "change_of_basis", change_of_basis)
        object.__setattr__(self, "certified", certified)


def _entry_from_json(spec: RingSpec, leaf: Any) -> Any:
    if isinstance(leaf, bool):
        raise IllFormed("booleans are not ring elements")
    if isinstance(leaf, int):
        return canon_payload(spec, leaf)
    return payload_from_json(spec, leaf)


# -- congruence on integer grids ----------------------------------------------
#
# The splitting algorithms keep a Gram grid and a basis grid each as one
# integer grid over one denominator, in the canonical form of InvMatrix slice
# 0 (``matrices._reduced``), and wrap results with ``InvMatrix._from_slices``;
# no Fraction is built on the way, and the GramForm of a result checks its
# symmetry on those integers.  Every ring searched here has the trivial
# involution, so a congruence t* a t is transpose(t) * a * t.


class _Congruence:
    """Gram grid ``a`` over ``da`` plus the accumulated basis, the columns of
    ``p`` over ``dp``, so that at any moment  p* . original . p = a.

    Both are integer grids in canonical form: over F_p (``mod``) residues
    over 1, each row taken mod p in the pass that computes it, over Q and
    Z[1/2] (``mod`` None) entries over a positive denominator prime to
    them.  There a step that divides scales the whole grid instead,
    multiplies the denominator and ends with one gcd pass.
    """

    def __init__(self, mod: int | None, grid: Sequence[Sequence[int]], den: int):
        self.mod = mod
        self.a, self.da = [list(row) for row in grid], den
        self.p, self.dp = identity_int(len(grid)), 1

    def _reduce(self) -> None:
        (self.a,), self.da = _reduced(self.mod, [self.a], self.da)
        (self.p,), self.dp = _reduced(self.mod, [self.p], self.dp)

    def swap(self, i: int, j: int) -> None:
        a = self.a
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in self.p:
            row[i], row[j] = row[j], row[i]

    def pivot(self, i: int) -> None:
        """e_j -= (a_ij / a_ii) e_i for every j > i, which clears row and
        column i off the diagonal; rows and columns before i must already
        be clear.  Every c_j comes from the pivot row as it was, since no
        step e_j -= c_j e_i changes a_il for l != j.

        Over Q and Z[1/2] the grids move to the denominator times |a_ii|:
        the trailing rows become |a_ii| a_j - sign(a_ii) a_ij a_i, the
        basis columns |a_ii| p_j - sign(a_ii) a_ij p_i, and every other
        entry is multiplied by |a_ii|.
        """
        a, mod = self.a, self.mod
        top = a[i]
        if not any(top[i + 1 :]):
            return
        pv = top[i]
        if mod:
            inv = pow(pv, -1, mod)
            s, coef = 1, [c * inv % mod for c in top]
        else:
            s, coef = abs(pv), top if pv > 0 else [-c for c in top]
        for j in range(i + 1, len(a)):
            if coef[j] and mod:
                a[j] = [(x - coef[j] * y) % mod for x, y in zip(a[j], top)]
            elif coef[j] or s != 1:
                a[j] = [s * x - coef[j] * y for x, y in zip(a[j], top)]
        a[i] = [0] * len(a)
        a[i][i] = s * pv
        cols = [0] * (i + 1) + coef[i + 1 :]
        for row in self.p:
            y = row[i]
            if y and mod:
                row[:] = [(x - c * y) % mod for x, c in zip(row, cols)]
            elif y or s != 1:
                row[:] = [s * x - c * y for x, c in zip(row, cols)]
        if not mod:
            for k in range(i):
                a[k][k] *= s
            self.da *= s
            self.dp *= s
            self._reduce()

    def scale(self, nums: Sequence[int], dens: Sequence[int]) -> None:
        """e_i *= nums[i] / dens[i], all positive; over Q and Z[1/2] only."""
        l = lcm(*dens)
        f = [c * (l // d) for c, d in zip(nums, dens)]
        self.a = [[x * fi * fj for x, fj in zip(row, f)] for row, fi in zip(self.a, f)]
        self.p = [[x * fj for x, fj in zip(row, f)] for row in self.p]
        self.da *= l * l
        self.dp *= l
        self._reduce()

    def apply(self, t: list[list[int]], den: int, off: int = 0) -> None:
        """The basis change e_(off+j) := sum_k (t[k][j] / den) e_(off+k) on
        the k = len(t) coordinates from ``off``, which must be orthogonal to
        all others: those only move to the new denominator.
        """
        a, end, mod = self.a, off + len(t), self.mod
        blk = matmul_int(list(map(list, zip(*t))), matmul_int([row[off:end] for row in a[off:end]], t), mod)
        cols = matmul_int([row[off:end] for row in self.p], t, mod)
        if den != 1:
            d2 = den * den
            self.a = a = [[d2 * x for x in row] for row in a]
            self.p = [[den * x for x in row] for row in self.p]
            self.da *= d2
            self.dp *= den
        for row, new in zip(a[off:end], blk):
            row[off:end] = new
        for row, new in zip(self.p, cols):
            row[off:end] = new
        if den != 1 or not mod:
            self._reduce()

    def plane(self, i: int, eps: int) -> None:
        """Split e_i, e_(i+1) off as a standard hyperbolic plane: the pair
        is isotropic, orthogonal to the coordinates before i, and c = a_i(i+1)
        is nonzero (a unit over Z[1/2]).  e_l -= (eps a_(i+1)l e_i + a_il
        e_(i+1)) / c for l > i + 1, with coefficients from the pair's rows as
        they were, is a rank-2 update of the trailing block; then e_(i+1) *=
        da / c.  Over Q and Z[1/2] the grids move to the denominator times |c|.
        """
        a, mod, n = self.a, self.mod, len(self.a)
        x, y = a[i], a[i + 1]
        c = x[i + 1]
        s, inv = (1, pow(c, -1, mod)) if mod else (abs(c), 1 if c > 0 else -1)
        w = inv if mod else inv * self.da
        # the coefficients of e_(i+1) and of e_i in each new e_l
        cx = [0] * (i + 2) + [v * inv for v in x[i + 2 :]]
        cy = [0] * (i + 2) + [eps * v * inv for v in y[i + 2 :]]
        for l in range(i + 2, n):
            a[l] = ([(u - cx[l] * yk - cy[l] * xk) % mod for u, xk, yk in zip(a[l], x, y)] if mod
                    else [s * u - cx[l] * yk - cy[l] * xk for u, xk, yk in zip(a[l], x, y)])
        if s != 1:
            for k in range(i):
                a[k] = [s * u for u in a[k]]
        for row in self.p:
            pi, pj = row[i], row[i + 1]
            row[:] = ([(u - cyl * pi - cxl * pj) % mod for u, cxl, cyl in zip(row, cx, cy)] if mod
                      else [s * u - cyl * pi - cxl * pj for u, cxl, cyl in zip(row, cx, cy)])
            row[i + 1] = w * pj % mod if mod else w * pj
        d = 1 if mod else self.da * s
        a[i], a[i + 1] = [0] * n, [0] * n
        a[i][i + 1], a[i + 1][i] = d, eps * d % mod if mod else eps * d
        if not mod:
            self.da *= s
            self.dp *= s
            self._reduce()


def _corner(mod: int | None, grid: list[list[int]], den: int, lo: int, hi: int | None = None):
    """The block lo..hi of a canonical grid over den, in canonical form: over
    F_p (``mod``) as it is, over Q and Z[1/2] by a gcd pass."""
    rows = [r[lo:hi] for r in grid[lo:hi]]
    if not mod:
        (rows,), den = _reduced(None, [rows], den)
    return rows, den


# -- diagonalization ----------------------------------------------------------


def _signed_vectors(n: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors ordered by height, then lexicographically with the
    per-coordinate order 0, 1, -1, 2, -2, ..."""
    for h in range(1, bound + 1):
        seq = [0] + [c for k in range(1, h + 1) for c in (k, -k)]
        for v in itertools.product(seq, repeat=n):
            if max(abs(c) for c in v) == h:
                yield v


def _unit_vector_search(grid: Sequence[Sequence[int]], bound: int) -> tuple[int, ...] | None:
    """First integer vector (height order) whose quadratic value is a unit,
    for a grid of numerators over a power of two (a unit is +-2^j over it);
    refuses after ``_SEARCH_BUDGET`` vectors."""
    for count, v in enumerate(_signed_vectors(len(grid), bound)):
        if count == _SEARCH_BUDGET:
            raise OracleInconclusive(
                f"unit-vector search stopped after {_SEARCH_BUDGET} vectors in a "
                f"{len(grid)}-dimensional block over Z[1/2], at height {max(map(abs, v))}"
            )
        if _is_power_of_two(sum(c * sum(map(mul, row, v)) for c, row in zip(v, grid))):
            return v
    return None


def _with_complement(grid: Sequence[Sequence[int]], cols: list[list[int]]) -> list[list[int]]:
    """The integer matrix [cols | K], K a basis of the integer vectors that
    the grid pairs to zero with every column: the split L = P + P^perp of
    the span P of the columns (Milnor-Husemoller, ch. I), read off one
    Hermite form (``kernel_basis_int`` of the functionals c^T G).  Over
    Z[1/2] it is a change of basis exactly when the form on P is unimodular;
    IdentityViolated unless its determinant is +-2^j."""
    m = len(grid)
    t = columns_to_matrix(cols + kernel_basis_int(matmul_int(cols, grid), m), m)
    det = int_det(t)
    if not _is_power_of_two(det):
        raise IdentityViolated(f"the split off its orthogonal complement has determinant {det}")
    return t


def _dyadic_block_pivot(ws: _Congruence, i: int) -> None:
    """Make a[i][i] and, from a 2x2 block, a[i + 1][i + 1] units when no
    trailing diagonal entry is one.

    A 2x2 principal block [[a, u], [u, b]] of unit determinant moves to
    i, i + 1, and a tiny search finds v = (x, y) with q(v) a unit.  Then
    w = (-(u x + b y), a x + u y) / g, g the gcd of those two entries, is
    orthogonal to v, and det [v w] = q(v) / g and q(w) = det q(v) / g^2 are
    units: [v w] is a change of basis of the block with two unit pivots.
    Otherwise a unit-valued vector v of the whole trailing block, found up
    to height ``_PIVOT_BOUND``, is split off by its orthogonal complement
    (``_with_complement``); if there is none and a 2x2 block was found,
    that search runs again after each Lagrange reduction step of the
    block, a shear of the whole trailing block, until the block is
    reduced.  One step turns [[0, 2], [2, 85]] (a unit value first at
    height 21) into [[0, 2], [2, 1]].
    """
    a = ws.a
    n = len(a)
    pair = next(
        ((r, s) for r in range(i, n) for s in range(r + 1, n)
         if _is_power_of_two(a[r][r] * a[s][s] - a[r][s] * a[r][s])),
        None,
    )
    v = t = None
    if pair is not None:
        r, s = pair
        ws.swap(i, r)
        ws.swap(i + 1, s)  # s > r >= i, so the first swap left it in place
        aa, u, bb = a[i][i], a[i][i + 1], a[i + 1][i + 1]
        v = next(((x, y) for x, y in _signed_vectors(2, 8)
                  if _is_power_of_two(aa * x * x + 2 * u * x * y + bb * y * y)), None)
        if v is not None:
            x, y = v
            gx, gy = aa * x + u * y, u * x + bb * y
            g = gcd(gx, gy)
            t = identity_int(n - i)
            t[0][:2], t[1][:2] = [x, -gy // g], [y, gx // g]
    if v is None:
        v = _unit_vector_search([row[i:] for row in ws.a[i:]], _PIVOT_BOUND)
    while v is None and pair is not None:
        # Lagrange steps (Cohen, GTM 138, 5.3) until q = 0, each swap shrinking
        # |aa|: with |aa| <= |bb|, e_(i+1) -= q e_i, q nearest to u / aa (bb / 2u if aa = 0)
        aa, u, bb = ws.a[i][i], ws.a[i][i + 1], ws.a[i + 1][i + 1]
        if abs(aa) > abs(bb):
            ws.swap(i, i + 1)
            aa, bb = bb, aa
        q = (2 * u + aa) // (2 * aa) if aa else (bb + u) // (2 * u)
        if not q:
            break
        shear = identity_int(n - i)
        shear[0][1] = -q
        ws.apply(shear, 1, i)
        v = _unit_vector_search([row[i:] for row in ws.a[i:]], _PIVOT_BOUND)
    if v is None:
        raise OracleInconclusive(
            f"no unit-valued vector of height <= {_PIVOT_BOUND} found while "
            f"diagonalizing a {n - i}-dimensional block over Z[1/2]"
        )
    ws.apply(t or _with_complement([row[i:] for row in ws.a[i:]], [list(v)]), 1, i)
    if not _is_power_of_two(ws.a[i][i]):
        raise IdentityViolated("the unit-vector pivot step left a non-unit pivot")


def _reduce_rational_diag(ws: _Congruence) -> None:
    """Rescale basis vectors so diagonal entries become squarefree integers:
    over Z[1/2], where they are units +-2^j, +-1 or +-2.

    Entry values move by squares only, so nothing Witt-theoretic changes,
    but isotropy witnesses get dramatically smaller coordinates, which is
    what keeps the bounded search effective.  Entry i, q = a_ii / da in
    lowest terms, is multiplied by den(q)^2 and divided by the square
    part of num(q) den(q).
    """
    nums, dens = [], []
    for i, row in enumerate(ws.a):
        g = gcd(row[i], ws.da)
        qden = ws.da // g
        nums.append(qden)
        dens.append(square_part(row[i] // g * qden))
    ws.scale(nums, dens)


def _pivot_size(num: int, den: int) -> int:
    """|a| b for num / den = a / b in lowest terms."""
    g = gcd(num, den)
    return abs(num) // g * (den // g)


def _diagonal(spec: RingSpec, grid: Sequence[Sequence[int]], den: int) -> _Congruence:
    """Congruence-diagonalize the grid over ``den``, pivoting on units of
    the ring: nonzero entries over F_p, the one of least ``_pivot_size``
    over Q, +-2^j over Z[1/2], whose diagonal then moves into {+-1, +-2} by
    squares of units."""
    ws = _Congruence(spec.p, grid, den)
    dyadic = spec.kind == DYADIC
    unit = _is_power_of_two if dyadic else bool
    n = len(grid)
    for i in range(n):
        a = ws.a
        if spec.kind == RATIONALS:
            j = min((k for k in range(i, n) if a[k][k]), key=lambda k: _pivot_size(a[k][k], ws.da), default=i)
            ws.swap(i, j)
        if not unit(a[i][i]):
            j = next((k for k in range(i + 1, n) if unit(a[k][k])), None)
            if j is not None:
                ws.swap(i, j)
            elif dyadic:
                _dyadic_block_pivot(ws, i)
            else:
                j = next((k for k in range(i + 1, n) if a[i][k]), None)
                if j is None:
                    raise DegenerateForm("Gram determinant is not a unit")  # as a determinant says
                # e_i += e_j makes a[i][i] = 2 a[i][j], nonzero as 2 is invertible
                t = identity_int(n - i)
                t[j - i][0] = 1
                ws.apply(t, 1, i)
        ws.pivot(i)
    if dyadic:
        _reduce_rational_diag(ws)
    return ws


def diagonalize(f: GramForm) -> tuple[InvMatrix, GramForm]:
    """Congruence-diagonalize a symmetric form.

    Returns (P, D) with P*.gram.P = D.gram, D diagonal.  Over Q each step
    pivots on the diagonal entry a / b != 0 left (in lowest terms) of least
    |a| b: a step scales all that is left by its pivot, so a small one keeps
    D small, and with it the square classes, factorings and isotropy
    searches that read D.  Over Z[1/2] the diagonal entries are normalized
    into {+-1, +-2} by unit-square scaling.  The pair is checked and kept
    once per form (over F_p and Q by ``GramForm`` unless its Gram matrix is
    a diagonal of units); ``witt_class`` and ``witt_decompose`` reuse it.
    """
    spec = f.ring
    if f.epsilon != 1:
        raise SpecMismatch("only symmetric forms diagonalize; got epsilon = -1")
    if not (spec.is_field or spec.kind == DYADIC):
        raise SpecMismatch(f"diagonalization not supported over {spec}")
    if f._diag is not None:
        return f._diag
    (grid,), den = f.gram._slice_form()
    ws = _diagonal(spec, grid, den)
    if not _congruent_to(spec.p, 1, [list(map(list, zip(*ws.p)))], ws.dp, [ws.a], ws.da, [grid], den):
        raise IdentityViolated("diagonalization certificate P*.G.P = D failed")
    p = InvMatrix._from_slices(spec, [ws.p], ws.dp, f.dim, f.dim)
    object.__setattr__(f, "_diag", (p, GramForm._certified(spec, ws.a, ws.da, 1)))
    return f._diag


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
    _check_int("height_bound", height_bound)
    n = f.dim
    if n == 0:
        return None
    (g,), _ = f.gram._slice_form()  # over one denominator, which leaves zeros zero
    p = spec.p
    vectors = itertools.product(range(p), repeat=n) if p else _signed_vectors(n, height_bound)
    for count, v in enumerate(vectors):
        if count == _SEARCH_BUDGET:
            raise BudgetExceeded(f"isotropy oracle over {spec} stopped after {_SEARCH_BUDGET} vectors")
        val = sum(c * sum(map(mul, row, v)) for c, row in zip(v, g) if c)
        if any(v) and (val % p if p else val) == 0:
            return tuple(RingElem(spec, c) for c in v)
    return None


def _height_shell(k: int, h: int) -> Iterator[tuple[int, ...]]:
    """Each vector of length k with entries in 0..h and largest entry h,
    once: the entries before the first h are below h."""
    for i in range(k):
        for head in itertools.product(range(h), repeat=i):
            for tail in itertools.product(range(h + 1), repeat=k - 1 - i):
                yield head + (h,) + tail


def _sqrt_mod(t: int, p: int) -> int | None:
    """A square root of t mod the odd prime p, or None for a non-residue
    (Euler's criterion); Tonelli-Shanks, with z the least non-residue."""
    t %= p
    if t == 0:
        return 0
    if legendre(t, p) == -1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    c, u, r = pow(least_nonresidue(p), q, p), pow(t, q, p), pow(t, (q + 1) // 2, p)
    # r^2 = t u with u of order 2^k, k < e; each step halves that order
    while u != 1:
        k, v = 0, u
        while v != 1:
            k, v = k + 1, v * v % p
        b = pow(c, 1 << (e - k - 1), p)
        e, c, u, r = k, b * b % p, u * b * b % p, r * b % p
    return r


def _isotropic_on_diagonal(
    spec: RingSpec, coeffs: list[int], bound: int
) -> tuple[int, ...] | None:
    """A nonzero integer vector v with sum(coeffs[i] * v[i]^2) = 0, or None.

    ``coeffs`` is the diagonal: residues over F_p, and over Q and Z[1/2]
    its numerators over one positive denominator, which has the same zeros.

    Over F_p nothing is searched (``bound`` is unused) and None proves
    anisotropy: <a, b> has the witness (x, 1) with x a square root of
    -b/a, if there is one; <a, b, c, ...> has (x, y, 1, 0, ...) for the
    first y = 0, 1, 2, ... that makes -(c + b y^2)/a a square, which some
    y < p does, as only two of the p + 1 zeros of the conic lie at z = 0.

    Over Q and Z[1/2] a definite diagonal gives None at once, and so does
    <a, b> with -ab not a square (``_decided_anisotropic``).  Otherwise,
    as changing signs of entries keeps the value, entries run over 0..h,
    and the two halves of the coordinates meet in the middle: height by
    height, each half's vectors of that exact height are looked up in the
    other half's table of first vector per value, then entered in their
    own; each table starts with its zero vector, which so pairs only with
    a nonzero one.  A witness has the least height of any, if that is at
    most ``bound``; None says only that there is none within it.  Which
    witness of that height is returned is not promised.
    """
    n = len(coeffs)
    if n < 2:
        return None
    if spec.kind == PRIME_FIELD:
        p = spec.p
        inv = pow(-coeffs[0], -1, p)
        if n == 2:
            x = _sqrt_mod(coeffs[1] * inv, p)
            return None if x is None else (x, 1)
        for y in range(p):
            x = _sqrt_mod((coeffs[2] + coeffs[1] * y * y) * inv, p)
            if x is not None:
                return (x, y, 1) + (0,) * (n - 3)
        raise IdentityViolated(f"a ternary form over {spec} has no zero")
    if _decided_anisotropic(coeffs):
        return None
    # above |B(v, v)| for every v within the bound, so two halves'
    # values add to 0 mod it exactly when they do as integers
    mod = bound * bound * sum(map(abs, coeffs)) + 1
    nl = (n + 1) // 2
    halves = (coeffs[:nl], coeffs[nl:])
    tables = ({0: (0,) * nl}, {0: (0,) * (n - nl)})
    left = _SEARCH_BUDGET
    for h in range(1, bound + 1):
        for side, d in enumerate(halves):
            own, other = tables[side], tables[1 - side]
            for v in itertools.islice(_height_shell(len(d), h), left):
                s = sum(map(mul, d, map(mul, v, v))) % mod
                w = other.get(-s % mod)
                if w is not None:
                    return v + w if side == 0 else w + v
                own.setdefault(s, v)
            left -= (h + 1) ** len(d) - h ** len(d)  # the size of the shell
            if left < 0:
                raise BudgetExceeded(f"isotropy search over {spec} passed {_SEARCH_BUDGET} vectors at height {h}")
    return None


# -- hyperbolic splitting -----------------------------------------------------


def _hyperbolic_pair(
    spec: RingSpec, g: list[list[int]], den: int, x: list[int], eps: int
) -> tuple[list[list[int]], int]:
    """(t, dt): an invertible matrix t / dt whose first two columns are x
    and a w with B(x, w) = 1 and, for a symmetric form, B(w, w) = 0.

    ``g`` is the Gram grid over ``den``; x is a primitive integer vector
    (over F_p, a nonzero residue vector).
    """
    mod, m = spec.p, len(g)
    row = [sum(map(mul, x, col)) for col in zip(*g)]  # B(x, .) over den
    if mod:
        row = [c % mod for c in row]
    if spec.kind == DYADIC:
        # B(x, .) in lowest terms is ints / (den / g0); it is onto, so the
        # odd part of gcd(ints) must be trivial
        g0 = gcd(den, *row)
        gb, coeffs = bezout_vector([c // g0 for c in row])
        if not _is_power_of_two(gb):
            raise IdentityViolated(f"B(x, .) is not onto: its gcd is {gb}")
        w, dw = [c * (den // g0) for c in coeffs], gb
    else:
        j = next(k for k in range(m) if row[k])
        w, dw = [den if k == j else 0 for k in range(m)], row[j]
    if eps == 1:
        # shear w so its own value vanishes: q(w - (q(w)/2) x) = 0
        qn = sum(map(mul, w, [sum(map(mul, r, w)) for r in g]))  # q(w) over den * dw^2
        w, dw = [2 * den * dw * c - qn * xc for c, xc in zip(w, x)], 2 * den * dw * dw
    ((w,),), dw = _reduced(mod, [[w]], dw)
    if spec.kind == DYADIC:
        # w over dw in lowest terms, so its numerators span what w does
        rest = [r[2:] for r in _with_complement(g, [x, w])]
    else:
        j1 = next(k for k in range(m) if x[k])
        # the first coordinate at which w is not a multiple of x
        cross = [c * x[j1] - w[j1] * xc for c, xc in zip(w, x)]
        j2 = next(k for k, c in enumerate(cross) if (c % mod if mod else c))
        keep = [k for k in range(m) if k not in (j1, j2)]
        rest = [[int(i == k) for k in keep] for i in range(m)]
    return [[dw * xc, c] + [dw * v for v in r] for xc, c, r in zip(x, w, rest)], dw


def witt_decompose(
    f: GramForm, height_bound: int = 6, require_certified: bool = False
) -> WittDecomposition:
    """Split off hyperbolic planes until no isotropic vector is found.

    A symmetric form is diagonalized once; each plane is split off inside
    the diagonal block of its witness's support S, whose other |S| - 2
    coordinates are diagonalized again, and every other diagonal entry
    stays.  In a skew form every vector is isotropic: the first remaining
    coordinate is paired with one it meets, by a rank-2 update.

    ``height_bound`` bounds only the isotropy searches on the diagonal over
    Q / Z[1/2]; over a prime field the answer is exact.  The diagonal is
    ``diagonalize``'s, so over Z[1/2] its pivot searches, and those of the
    blocks diagonalized again, stop at ``_PIVOT_BOUND`` whatever the
    height bound: a form ``diagonalize`` refuses is refused here with the
    same error.  When the leftover block cannot be proved anisotropic the
    result is returned with ``certified=False``, or OracleInconclusive is
    raised if ``require_certified`` is True; it must be a bool, and
    anything else is refused with IllFormed.
    """
    spec = f.ring
    if spec.kind not in _SEARCH_RINGS:
        raise SpecMismatch(f"Witt decomposition not supported over {spec}")
    _check_int("height_bound", height_bound)
    if type(require_certified) is not bool:
        raise IllFormed(f"require_certified must be True or False, got {require_certified!r}")
    eps, n, mod = f.epsilon, f.dim, spec.p
    (grid,), den = f.gram._slice_form()
    # the planes split off so far fill a[:off][:off]; what is left is the
    # block from off on, orthogonal to them, and diagonal if eps = 1
    if eps == -1:
        ws = _Congruence(mod, grid, den)
    else:
        # on copies of diagonalize's grids, which stay as they are
        p, d = diagonalize(f)
        (diag,), dd = d.gram._slice_form()
        ws = _Congruence(mod, diag, dd)
        (basis,), ws.dp = p._slice_form()
        ws.p = [list(row) for row in basis]
        if spec.kind == RATIONALS:
            _reduce_rational_diag(ws)
    off = 0
    while off < n:
        a = ws.a
        if eps == 1:
            xd = _isotropic_on_diagonal(spec, [a[k][k] for k in range(off, n)], height_bound)
            if xd is None:
                break
            # the coordinates of the support move to the front of what is left
            support = [k for k, c in enumerate(xd) if c]
            for r, k in enumerate(support):
                ws.swap(off + r, off + k)
            g, k = gcd(*xd), len(support)
            # that diagonal block is orthogonal to the rest: the plane is
            # split off inside it, and its k - 2 other coordinates are
            # diagonalized again
            blk, dblk = _corner(mod, a, ws.da, off, off + k)
            loc = _Congruence(mod, blk, dblk)
            loc.apply(*_hyperbolic_pair(spec, blk, dblk, [xd[s] // g for s in support], 1))
            loc.plane(0, 1)
            if k > 2:
                rest, drest = _corner(mod, loc.a, loc.da, 2)
                dg = _diagonal(spec, rest, drest)
                if spec.kind == RATIONALS:
                    _reduce_rational_diag(dg)
                loc.apply(dg.p, dg.dp, 2)
            ws.apply(loc.p, loc.dp, off)
        else:
            # over Z[1/2] the partner must meet e_off in a unit
            unit = _is_power_of_two if spec.kind == DYADIC else bool
            j = next((l for l in range(off + 1, n) if unit(a[off][l])), None)
            if j is None:
                cur, dcur = _corner(mod, a, ws.da, off)
                ws.apply(*_hyperbolic_pair(spec, cur, dcur, [1] + [0] * (n - off - 1), eps), off)
            else:
                ws.swap(off + 1, j)
            ws.plane(off, eps)
        # the two basis vectors must now span a standard hyperbolic plane
        # orthogonal to the rest
        a, d = ws.a, ws.da
        plane = [[0, d], [eps * d % mod if mod else eps * d, 0]]
        if [r[off : off + 2] for r in a[off : off + 2]] != plane or any(
            a[off + r][l] or a[l][off + r] for r in (0, 1) for l in range(off + 2, n)
        ):
            raise IdentityViolated("the hyperbolic pair did not split off")
        off += 2

    # a is the planes, each checked as it was split off (later steps only
    # move them to a new denominator), and the remainder
    if not _congruent_to(mod, eps, [list(map(list, zip(*ws.p)))], ws.dp, [ws.a], ws.da, [grid], den):
        raise IdentityViolated("Witt decomposition certificate failed to re-multiply")
    aniso, drem = _corner(mod, ws.a, ws.da, off)
    basis = InvMatrix._from_slices(spec, [ws.p], ws.dp, n, n)
    certified = _certify(spec, eps, aniso)
    if require_certified and not certified:
        raise OracleInconclusive(
            f"anisotropy of the {len(aniso)}-dimensional remainder is not "
            f"certified within height bound {height_bound}"
        )
    return WittDecomposition(off // 2, GramForm._certified(spec, aniso, drem, eps), basis, certified)


def _decided_anisotropic(coeffs: Sequence[Any]) -> bool:
    """Whether a rational diagonal is anisotropic by a test that needs no
    search: it is definite, or it is <a, b> with -ab not a square."""
    if all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
        return True
    if len(coeffs) != 2:
        return False
    t = -coeffs[0] * coeffs[1]
    t = t.numerator * t.denominator  # positive, and a square exactly when t is
    return isqrt(t) ** 2 != t


def _certify(spec: RingSpec, eps: int, aniso: list[list[int]]) -> bool:
    if spec.kind == PRIME_FIELD or len(aniso) <= 1 or eps == -1:
        return True
    # diagonal by construction
    return _decided_anisotropic([aniso[i][i] for i in range(len(aniso))])


def _hyperbolic_matrix(spec: RingSpec, n: int, eps: int) -> InvMatrix:
    rows = [[int(j == i + n) for j in range(2 * n)] for i in range(n)]
    return InvMatrix.from_rows(spec, rows + [[eps * (j == i) for j in range(2 * n)] for i in range(n)])


def hyperbolic(n: int, epsilon: int, ring: RingSpec) -> GramForm:
    """The rank-n hyperbolic form [[0, I], [eps*I, 0]] (size 2n)."""
    _check_int("hyperbolic rank", n)
    _check_int("epsilon", epsilon, (1, -1))
    return GramForm(_hyperbolic_matrix(ring, n, epsilon), epsilon)


def interchange_isometry(n: int, epsilon: int, ring: RingSpec) -> InvMatrix:
    """The swap [[0, I], [eps*I, 0]] of the two lagrangian summands of the
    hyperbolic form, checked to be an isometry with square eps*I."""
    _check_int("rank", n)
    _check_int("epsilon", epsilon, (1, -1))
    sigma = _hyperbolic_matrix(ring, n, epsilon)  # also the Gram matrix of the form
    if sigma.conj_transpose() * sigma * sigma != sigma:
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
