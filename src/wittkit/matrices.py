"""Matrices over the supported involutive rings.

``InvMatrix`` is immutable and exact; its star is the conjugate transpose.
Over F_p, Q, Z[1/2] and B[x]/(x^k) over them a matrix is k integer slices
(k = 1 untruncated) over one denominator, as FLINT's ``fmpq_mat`` stores a
rational matrix; slice d holds the numerators of degree d.  The form is
canonical, so ``==`` compares it as it is: ``den > 0``, gcd(den, entries)
= 1, and over F_p ``den = 1`` with entries in [0, p).  ``cells``, the grid
of payloads, is a view built on first use; a matrix built from payloads
keeps them as that view and builds its slices on first use.  Rows of
Python ints over F_p, Q and Z[1/2] enter ``from_rows`` as slice 0 over 1
(mod p over F_p), with no payload built.  Products
(``_slice_products`` plus one gcd pass, ``_reduced``; over F_p one
``% p`` per entry inside the product), sums, scalings (by a constant, one
integer times every slice), transposes, block sums and the (I + g)^(-1/2)
series of the lifting layer work on the slices.  These rings carry the
trivial involution, and one congruence test, X (G/dg) X* = T/dt with G
left out for I (``_congruent_to``), decides the certificates of ``forms``
and of the lifting layer on the slices with no product matrix: after one
eps-symmetry test of T (``_is_symmetric``) it compares one triangle per
degree, cross-multiplied by the denominators, up to the first mismatch.
``forms`` passes its grids as one slice; X X* = I (``is_unitary``) and
X J1 X* = J2 (``_is_congruence``) reach it from ``InvMatrix``.  Over
``laurent2`` and ``truncnil(laurent2)`` matrices stay payload grids and
call the ring's bound ops (``RingSpec.ops``) entry by entry, products
included (``_matmul``), and these tests take the products.

Inverses exist exactly when the determinant is a unit.  Over F_p, Q and
Z[1/2] the determinant is int_det(slice 0) / den^n (fraction-free Bareiss);
elsewhere, where a pivot need not divide exactly, it is read off the
characteristic polynomial (``_charpoly``, Berkowitz's division-free
algorithm).  Every inverse comes from that polynomial by Cayley-Hamilton,
over F_p, Q and Z[1/2] taken of the integer numerators of slice 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, gcd, lcm
from operator import eq, mul

from .errors import IdentityViolated, IllFormed, NonUnit, NotNilpotent, SpecMismatch
from .intlinalg import identity_int, int_det, matmul_int
from .rings import (
    DYADIC,
    LAURENT2,
    PRIME_FIELD,
    RATIONALS,
    TRUNC_NIL,
    RingElem,
    RingSpec,
    _Frozen,
    _fixed,
    _is_nilpotent,
    canon_payload,
    payload_from_json,
    payload_repr,
    payload_to_json,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Sequence


def _cook(spec: RingSpec, entry: Any) -> Any:
    if isinstance(entry, RingElem):
        if entry.spec != spec:
            raise SpecMismatch(f"scalar over {entry.spec} used over {spec}")
        return entry.payload
    return canon_payload(spec, entry)


class InvMatrix(_Frozen):
    """Rectangular matrix over one ring, stored as the module docstring says."""

    __slots__ = ("spec", "nrows", "ncols", "_cells", "_sliced")

    def __init__(self, spec: RingSpec, cells: tuple | None, nrows: int, ncols: int):
        """From a grid (tuple of row tuples) of canonical payloads."""
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_sliced", None)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)

    @classmethod
    def _from_slices(cls, spec: RingSpec, slices: list, den: int, nrows: int, ncols: int) -> "InvMatrix":
        """From canonical slices; ``cells`` is built on first use."""
        m = cls(spec, None, nrows, ncols)
        object.__setattr__(m, "_sliced", (slices, den))
        return m

    @property
    def cells(self) -> tuple:
        """The grid of canonical payloads (a tuple of row tuples)."""
        cells = self._cells
        if cells is None:
            cells = tuple(map(tuple, _payloads(self.spec, *self._sliced)))
            object.__setattr__(self, "_cells", cells)
        return cells

    def _slice_form(self) -> tuple[list, int]:
        """(slices, den), built on first use; for rings with a ``_layout``."""
        if self._sliced is None:
            object.__setattr__(self, "_sliced", _slices_of(self.spec, self._cells))
        return self._sliced

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, spec: RingSpec, rows: Sequence[Sequence[Any]]) -> "InvMatrix":
        rows, p = [list(row) for row in rows], spec.p  # each row read twice, kept as a copy
        # int rows over F_p, Q and Z[1/2] are slice 0 over den 1 as they are
        ints = spec.kind in (PRIME_FIELD, RATIONALS, DYADIC) and all(type(e) is int for row in rows for e in row)
        grid = (([[e % p for e in row] for row in rows] if p else rows) if ints
                else tuple(tuple(_cook(spec, e) for e in row) for row in rows))
        if not grid:
            return cls(spec, (), 0, 0)
        widths = {len(row) for row in grid}
        if len(widths) != 1:
            raise IllFormed("ragged rows in matrix input")
        if ints:
            return cls._from_slices(spec, [grid], 1, len(grid), widths.pop())
        return cls(spec, grid, len(grid), widths.pop())

    @classmethod
    def identity(cls, spec: RingSpec, n: int) -> "InvMatrix":
        layout = _layout(spec)
        if layout is not None:
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            return cls._from_slices(spec, [eye] + [[[0] * n] * n] * (layout[0] - 1), 1, n, n)
        one, zero = spec.one, spec.zero
        grid = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls(spec, grid, n, n)

    @classmethod
    def zeros(cls, spec: RingSpec, nrows: int, ncols: int) -> "InvMatrix":
        zero = spec.zero
        return cls(spec, tuple((zero,) * ncols for _ in range(nrows)), nrows, ncols)

    @classmethod
    def diagonal(cls, spec: RingSpec, entries: Sequence[Any]) -> "InvMatrix":
        cooked = [_cook(spec, e) for e in entries]
        n = len(cooked)
        if _layout(spec) is not None:
            # the slices of the entries as one row, spread over the diagonal
            rows, den = _slices_of(spec, [cooked])
            slices = [[[v if i == j else 0 for j in range(n)] for i, v in enumerate(row)] for (row,) in rows]
            return cls._from_slices(spec, slices, den, n, n)
        zero = spec.zero
        grid = tuple(
            tuple(cooked[i] if i == j else zero for j in range(n)) for i in range(n)
        )
        return cls(spec, grid, n, n)

    @classmethod
    def block_diag(cls, blocks: Sequence["InvMatrix"]) -> "InvMatrix":
        if not blocks:
            raise IllFormed("block_diag needs at least one block")
        spec = blocks[0].spec
        if any(b.spec != spec for b in blocks):
            raise SpecMismatch("block_diag blocks over different rings")
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        layout = _layout(spec)
        if layout is None:
            den, parts, fill = 1, [[b.cells] for b in blocks], spec.zero
        else:
            # every block over the lcm of the denominators: still canonical,
            # since each prime power of it is one block's whole denominator
            forms = [b._slice_form() for b in blocks]
            den, fill = lcm(*[d for _, d in forms]), 0
            parts = [[[[den // d * v for v in row] for row in s] for s in slices] for slices, d in forms]
        out = [[[fill] * ncols for _ in range(nrows)] for _ in parts[0]]
        r0 = c0 = 0
        for b, part in zip(blocks, parts):
            for grid, s in zip(out, part):
                for i, row in enumerate(s):
                    grid[r0 + i][c0 : c0 + b.ncols] = row
            r0 += b.nrows
            c0 += b.ncols
        if layout is None:
            return cls(spec, tuple(map(tuple, out[0])), nrows, ncols)
        return cls._from_slices(spec, out, den, nrows, ncols)

    @classmethod
    def kron(cls, a: "InvMatrix", b: "InvMatrix") -> "InvMatrix":
        if a.spec != b.spec:
            raise SpecMismatch("Kronecker product over different rings")
        spec = a.spec
        mul_ = spec.ops.mul
        grid = []
        for i in range(a.nrows):
            for k in range(b.nrows):
                row = []
                for j in range(a.ncols):
                    aij = a.cells[i][j]
                    row.extend(mul_(aij, b.cells[k][l]) for l in range(b.ncols))
                grid.append(tuple(row))
        return cls(spec, tuple(grid), a.nrows * b.nrows, a.ncols * b.ncols)

    # -- access -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> RingElem:
        return RingElem(self.spec, self.cells[i][j], _raw=True)

    def __getitem__(self, idx: tuple[int, int]) -> RingElem:
        i, j = idx
        return self.entry(i, j)

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "InvMatrix") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"mixed rings {self.spec} and {other.spec}")

    def _combine(self, other: "InvMatrix", sign: int) -> "InvMatrix":
        """self + sign * other, in one pass."""
        self._check_same(other)
        if self.shape != other.shape:
            raise IllFormed(f"shape mismatch {self.shape} and {other.shape}")
        if _layout(self.spec) is None:
            add, neg = self.spec.ops.add, self.spec.ops.neg if sign < 0 else _fixed
            grid = tuple(
                tuple([add(a, neg(b)) for a, b in zip(ra, rb)])
                for ra, rb in zip(self.cells, other.cells)
            )
            return InvMatrix(self.spec, grid, self.nrows, self.ncols)
        (xs, dx), (ys, dy) = self._slice_form(), other._slice_form()
        p = _layout(self.spec)[1]
        if p:  # den = 1, and the sums mod p are canonical
            slices = [
                [[(u + sign * v) % p for u, v in zip(ur, vr)] for ur, vr in zip(x, y)]
                for x, y in zip(xs, ys)
            ]
            return InvMatrix._from_slices(self.spec, slices, 1, self.nrows, self.ncols)
        den = lcm(dx, dy)
        a, b = den // dx, sign * (den // dy)
        slices = [
            [[a * u + b * v for u, v in zip(ur, vr)] for ur, vr in zip(x, y)]
            for x, y in zip(xs, ys)
        ]
        return _canonical(self.spec, slices, den, self.nrows, self.ncols)

    def __add__(self, other: "InvMatrix") -> "InvMatrix":
        return self._combine(other, 1)

    def __neg__(self) -> "InvMatrix":
        return self.scale(-1)

    def __sub__(self, other: "InvMatrix") -> "InvMatrix":
        return self._combine(other, -1)

    def __mul__(self, other: Any) -> Any:
        if isinstance(other, InvMatrix):
            self._check_same(other)
            if self.ncols != other.nrows:
                raise IllFormed(f"shape mismatch {self.shape} * {other.shape}")
            if not other.nrows:
                return InvMatrix.zeros(self.spec, self.nrows, other.ncols)
            layout = _layout(self.spec)
            if layout is None:
                grid = _matmul(self.spec, self.cells, other.cells)
                return InvMatrix(self.spec, tuple(map(tuple, grid)), self.nrows, other.ncols)
            (xs, dx), (ys, dy) = self._slice_form(), other._slice_form()
            k, p = layout
            prods = _slice_products(xs, ys, k, p)
            if p:
                return InvMatrix._from_slices(self.spec, prods, 1, self.nrows, other.ncols)
            return _canonical(self.spec, prods, dx * dy, self.nrows, other.ncols)
        return self.scale(other)

    def __rmul__(self, other: Any) -> "InvMatrix":
        return self.scale(other)

    def scale(self, scalar: Any) -> "InvMatrix":
        spec = self.spec
        s = _cook(spec, scalar)
        if _layout(spec) is None:
            mul_ = spec.ops.mul
            grid = tuple(tuple([mul_(s, a) for a in row]) for row in self.cells)
            return InvMatrix(spec, grid, self.nrows, self.ncols)
        scalar_slices, ds = _slices_of(spec, ((s,),))
        slices, den = self._slice_form()
        p = _layout(spec)[1]
        if not any(t[0][0] for t in scalar_slices[1:]):  # a constant: one integer times every slice
            c = scalar_slices[0][0][0]
            out = [[[c * v % p if p else c * v for v in row] for row in t] for t in slices]
        else:  # s is a 1x1 matrix polynomial, each slice a row of nrows * ncols entries
            flat = _slice_products(scalar_slices, [[[v for row in t for v in row]] for t in slices], len(slices), p)
            out = [[row[i * self.ncols : (i + 1) * self.ncols] for i in range(self.nrows)] for (row,) in flat]
        if p:
            return InvMatrix._from_slices(spec, out, 1, self.nrows, self.ncols)
        return _canonical(spec, out, den * ds, self.nrows, self.ncols)

    def transpose(self) -> "InvMatrix":
        if _layout(self.spec) is not None:
            slices, den = self._slice_form()
            flipped = [[list(col) for col in zip(*s)] or [[] for _ in range(self.ncols)] for s in slices]
            return InvMatrix._from_slices(self.spec, flipped, den, self.ncols, self.nrows)
        grid = tuple(zip(*self.cells)) if self.nrows else ((),) * self.ncols
        return InvMatrix(self.spec, tuple(tuple(r) for r in grid), self.ncols, self.nrows)

    def conj_transpose(self) -> "InvMatrix":
        """Transpose combined with the ring involution entrywise."""
        involute = self.spec.ops.involute
        if involute is _fixed:
            return self.transpose()
        grid = tuple(tuple([involute(row[j]) for row in self.cells]) for j in range(self.ncols))
        return InvMatrix(self.spec, grid, self.ncols, self.nrows)

    def trace(self) -> RingElem:
        if self.nrows != self.ncols:
            raise IllFormed("trace of a non-square matrix")
        spec = self.spec
        add, acc = spec.ops.add, spec.zero
        for i in range(self.nrows):
            acc = add(acc, self.cells[i][i])
        return RingElem(spec, acc, _raw=True)

    # -- determinant and inverse ---------------------------------------------

    def _det_payload(self) -> Any:
        if self.nrows != self.ncols:
            raise IllFormed("determinant of a non-square matrix")
        spec = self.spec
        if spec.kind not in (PRIME_FIELD, RATIONALS, DYADIC):
            c = _charpoly(spec.ops, self.cells, spec.one)
            return c[-1] if self.nrows % 2 == 0 else spec.ops.neg(c[-1])
        # fraction-free Bareiss elimination on the numerators
        (numerators,), den = self._slice_form()
        d = int_det(numerators)
        return d % spec.p if spec.p else Fraction(d, den**self.nrows)

    def det(self) -> RingElem:
        return RingElem(self.spec, self._det_payload(), _raw=True)

    def det_and_inverse(self) -> tuple[RingElem, "InvMatrix | None"]:
        """Determinant, and the inverse iff the determinant is a unit.

        By Cayley-Hamilton, with det(tI - A) = t^n + c_1 t^(n-1) + ... + c_n,
        det A = (-1)^n c_n and A^(-1) = -B / c_n, where B = A^(n-1) +
        c_1 A^(n-2) + ... + c_(n-1) I is summed by Horner's rule.
        """
        if self.nrows != self.ncols:
            raise IllFormed("determinant of a non-square matrix")
        spec, n = self.spec, self.nrows
        if spec.kind in (PRIME_FIELD, RATIONALS, DYADIC):
            # c_i(A) = c_i(N) / den^i for the numerators N = den * A; the ops
            # of Q and Z[1/2] are +, - and *, so they run on ints as well
            (numerators,), den = self._slice_form()
            c = _charpoly(spec.ops, numerators, 1)
            c = [canon_payload(spec, Fraction(v, den**i)) for i, v in enumerate(c)]
        else:
            c = _charpoly(spec.ops, self.cells, spec.one)
        last = RingElem(spec, c[-1], _raw=True)
        det = last if n % 2 == 0 else -last
        if not det.is_unit():
            return det, None
        ident = b = InvMatrix.identity(spec, n)
        for ci in c[1:-1]:
            b = self * b + ident.scale(RingElem(spec, ci, _raw=True))
        return det, b.scale((-last).inv())

    def inverse(self) -> "InvMatrix":
        d, inv = self.det_and_inverse()
        if inv is None:
            raise NonUnit(f"determinant {d!r} is not a unit")
        return inv

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        if _layout(self.spec) is not None:
            return not any(any(row) for s in self._slice_form()[0] for row in s)
        is_zero = self.spec.ops.is_zero
        return all(map(is_zero, (a for row in self.cells for a in row)))

    def is_identity(self) -> bool:
        n = self.nrows
        if n != self.ncols:
            return False
        if _layout(self.spec) is None:
            return self == InvMatrix.identity(self.spec, n)
        # canonical slices: den 1, slice 0 the identity, every other slice 0
        (first, *rest), den = self._slice_form()
        return (den == 1 and all(row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(first))
                and not any(any(row) for s in rest for row in s))

    def is_self_adjoint(self) -> bool:
        return self._is_eps_adjoint(1)

    def _is_eps_adjoint(self, eps: int) -> bool:
        """Whether X* = eps X: on the slices (``_is_symmetric``) where the
        involution is trivial, over Laurent bases by the conjugate transpose."""
        if self.nrows != self.ncols:
            return False
        layout = _layout(self.spec)
        if layout is None:
            return self.conj_transpose() == (self if eps == 1 else -self)
        return _is_symmetric(layout[1], eps, self._slice_form()[0])

    def is_unitary(self) -> bool:
        """Whether X X* = I, the congruence of I (``_is_congruence``)."""
        return self.nrows == self.ncols and self._is_congruence()

    def _is_congruence(self, t: "InvMatrix | None" = None, g: "InvMatrix | None" = None) -> bool:
        """Whether X G X* = T for X = self and a self-adjoint G, a left-out G
        or T being I: by ``_congruent_to`` on the slices where the involution
        is trivial, over Laurent bases by the product."""
        layout = _layout(self.spec)
        if layout is None:
            prod = (self if g is None else self * g) * self.conj_transpose()
            return prod.is_identity() if t is None else prod == t
        ts, dt = (None, 1) if t is None else t._slice_form()
        gs, dg = (None, 1) if g is None else g._slice_form()
        return _congruent_to(layout[1], 1, *self._slice_form(), ts, dt, gs, dg)

    def map_entries(self, fn) -> "InvMatrix":
        """Apply ``fn`` to each entry as a RingElem; result ring may differ."""
        rows = [[fn(self.entry(i, j)) for j in range(self.ncols)] for i in range(self.nrows)]
        if not rows or not rows[0]:
            raise IllFormed("map_entries needs a nonempty matrix")
        spec = rows[0][0].spec
        return InvMatrix.from_rows(spec, rows)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ring": self.spec.to_json(),
            "entries": [
                [payload_to_json(self.spec, a) for a in row] for row in self.cells
            ],
        }

    @classmethod
    def from_json(cls, obj: Any) -> "InvMatrix":
        if not isinstance(obj, dict) or "ring" not in obj or "entries" not in obj:
            raise IllFormed("matrix object needs 'ring' and 'entries'")
        spec = RingSpec.from_json(obj["ring"])
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise IllFormed("matrix entries must be a list of rows")
        grid = tuple(
            tuple(payload_from_json(spec, a) for a in row) for row in entries
        )
        if grid and len({len(r) for r in grid}) != 1:
            raise IllFormed("ragged rows in matrix input")
        return cls(spec, grid, len(grid), len(grid[0]) if grid else 0)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, InvMatrix):
            return NotImplemented
        if self.spec != other.spec or self.shape != other.shape:
            return False
        if _layout(self.spec) is None:
            return self.cells == other.cells
        return self._slice_form() == other._slice_form()

    def __hash__(self) -> int:
        return hash((self.spec, self.cells))

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(payload_repr(self.spec, a) for a in row) for row in self.cells
        )
        return f"<{self.nrows}x{self.ncols} [{rows}] over {self.spec}>"


def _charpoly(ops: Sequence[Any], grid: Sequence[Sequence[Any]], one: Any) -> list[Any]:
    """[1, c_1, ..., c_n] with det(tI - A) = t^n + c_1 t^(n-1) + ... + c_n,
    for the square grid A over a commutative ring with ops (add, neg, mul).

    Berkowitz's algorithm (1984): division-free, O(n^4) ring operations.
    The leading block A_(r+1) borders M = A_r with the column C, the row R
    and the corner a; its charpoly is the Toeplitz product of
    (1, -a, -R C, -R M C, ..., -R M^(r-1) C) with the charpoly of M.
    """
    add, neg, mul = ops[:3]
    poly = [one]
    for r, row in enumerate(grid):
        col = [grid[i][r] for i in range(r)]
        q = [one, neg(row[r])]
        for k in range(r):
            if k:
                col = [reduce(add, map(mul, grid[i], col)) for i in range(r)]
            q.append(neg(reduce(add, map(mul, row, col))))
        poly = [reduce(add, map(mul, q[i::-1], poly)) for i in range(r + 2)]
    return poly


def _layout(spec: RingSpec) -> tuple[int, int | None] | None:
    """(k, p) when matrices over ``spec`` are k integer slices, p the prime
    of an F_p base or None; None over Laurent bases (payload grids)."""
    base, k = (spec.base, spec.k) if spec.kind == TRUNC_NIL else (spec, 1)
    return None if base.kind == LAURENT2 else (k, base.p)


def _slices_of(spec: RingSpec, cells: Sequence[Sequence[Any]]) -> tuple[list, int]:
    """Canonical (slices, den) of canonical payloads: den is the lcm of the
    denominators, and a prime's full power in den divides some entry's
    denominator, so that entry's scaled numerator is prime to it."""
    trunc = spec.kind == TRUNC_NIL
    slices = [[[e[d] for e in row] if trunc else list(row) for row in cells] for d in range(spec.k or 1)]
    if _layout(spec)[1]:
        return slices, 1
    den = lcm(*[e.denominator for s in slices for row in s for e in row])
    return [[[e.numerator * (den // e.denominator) for e in row] for row in s] for s in slices], den


def _payloads(spec: RingSpec, slices: Sequence[Any], den: int) -> list[list[Any]]:
    """Canonical payloads (a list of row lists) of slices / den (den = 1 over
    F_p), not necessarily reduced: one % p or one Fraction per coefficient."""
    p = _layout(spec)[1]
    if spec.kind == TRUNC_NIL:
        # rows[r] runs over the columns of row r, each a tuple of k coefficients
        rows = [zip(*degrees) for degrees in zip(*slices)]
        if p:
            return [[tuple([v % p for v in e]) for e in row] for row in rows]
        return [[tuple([Fraction(v, den) for v in e]) for e in row] for row in rows]
    return [[v % p if p else Fraction(v, den) for v in row] for row in slices[0]]


def _reduced(p: int | None, slices: list, den: int) -> tuple[list, int]:
    """(slices, den) of the matrix slices / den in canonical form: over F_p
    the entries times den^(-1) mod p over 1, else the entries and den
    divided by their gcd, with the sign that makes den positive."""
    if p:
        inv = pow(den, -1, p)
        return [[[v * inv % p for v in row] for row in s] for s in slices], 1
    if den == 1:
        return slices, den
    g = gcd(den, *[v for s in slices for row in s for v in row])
    if den < 0:
        g = -g
    if g == 1:
        return slices, den
    return [[[v // g for v in row] for row in s] for s in slices], den // g


def _canonical(spec: RingSpec, slices: list, den: int, nrows: int, ncols: int) -> InvMatrix:
    """The matrix slices / den in canonical form."""
    return InvMatrix._from_slices(spec, *_reduced(_layout(spec)[1], slices, den), nrows, ncols)


def _matmul(spec: RingSpec, x: Sequence[Sequence[Any]], y: Sequence[Sequence[Any]]) -> list[list[Any]]:
    """Product of the payload grids x (n x l) and y (l x m), as a list of rows,
    summed entry by entry with the ring's bound ops: the product of matrices
    over Laurent bases, which have no slices.  When y has no rows its width
    is unknown, and each of the n output rows is empty.
    """
    if not x or not y or not y[0]:
        return [[] for _ in x]
    add, _, mul_, _, _ = spec.ops
    zero = spec.zero
    out = []
    for row in x:
        out_row = []
        for col in zip(*y):
            acc = zero
            for a, b in zip(row, col):
                acc = add(acc, mul_(a, b))
            out_row.append(acc)
        out.append(out_row)
    return out


def _slice_products(xs: Sequence[Any], ys: Sequence[Any], k: int, p: int | None = None) -> list[list[list[int]]]:
    """Degrees 0..k-1 of the product of two integer matrix polynomials.

    ``xs[d]`` and ``ys[d]`` are the integer matrices of degree d (n x l and
    l x m).  Degree d of the truncated product, sum_{i+j=d} X_i*Y_j, is
    one integer product [X_0 .. X_d] * [Y_d; ..; Y_0], mod p if p is given.
    """
    left, right, prods = xs[0], [], []
    for d in range(k):
        if d:
            left = [a + b for a, b in zip(left, xs[d])]
        right = [*ys[d], *right]
        prods.append(matmul_int(left, right, p))
    return prods


def _is_symmetric(p: int | None, eps: int, slices: Sequence[Any]) -> bool:
    """Whether every square integer slice (residues mod p if p is given) is
    eps-symmetric, each row compared with its column."""
    for s in slices:
        rows = map(tuple, s) if eps == 1 else (tuple([-v % p if p else -v for v in r]) for r in s)
        if not all(map(eq, zip(*s), rows)):
            return False
    return True


def _congruent_to(p: int | None, eps: int, xs: Sequence[Any], dx: int, ts: Sequence[Any] | None = None,
                  dt: int = 1, gs: Sequence[Any] | None = None, dg: int = 1) -> bool:
    """Whether X (G/dg) X* = T/dt for X = xs/dx with X* = X^T, given k integer
    slices xs, ts and gs (residues mod p if p is given), G eps-symmetric; a
    left-out G or T is I.  T must be eps-symmetric (I is), and then only the
    upper triangle is compared: entry (r, c) of degree d of Y X^T, Y = X G
    taken once, is row r of [Y_0 .. Y_d] times row c of [X_d .. X_0].  The
    sides are cross-multiplied, dt Y X^T = s T for s = dg dx^2, each entry of
    T times s as it is compared, up to the first mismatch.  Over F_p s takes
    in dt^(-1); elsewhere dt is divided out of s where it divides, as it does
    for a true congruence with T/dt in lowest terms, and else scales Y once."""
    m, k, s = len(xs[0]), len(xs), dg * dx * dx
    if dt != 1:
        if p:
            s, dt = s * pow(dt, -1, p) % p, 1
        elif s % dt == 0:
            s, dt = s // dt, 1
    if ts is None:
        ts = [identity_int(m), *[[[0] * m] * m] * (k - 1)]
    elif not _is_symmetric(p, eps, ts):
        return False
    ys = xs if gs is None else _slice_products(xs, gs, k, p)
    if dt != 1:
        ys = [[[dt * v for v in row] for row in y] for y in ys]
    lefts = accumulate(ys, lambda acc, y: [u + v for u, v in zip(acc, y)])
    rights = accumulate(xs, lambda acc, x: [v + u for u, v in zip(acc, x)])
    for left, right, t in zip(lefts, rights, ts):
        for r, row in enumerate(left):
            target = t[r]
            for c in range(r, m):
                v = sum(map(mul, row, right[c])) - s * target[c]
                if v % p if p else v:
                    return False
    return True


def inv_sqrt_one_plus(g: InvMatrix) -> InvMatrix:
    """Exact (I + g)^(-1/2) for a nilpotent self-commuting argument.

    The binomial series sum_j C(-1/2, j) g^j terminates because every entry
    of ``g`` is required to be nilpotent (zero outside truncated rings); the
    dyadic binomial coefficients embed into every supported ring.  Over
    truncated rings of fp, q and dyadic it is summed on integer slices
    (``_inv_sqrt_slices``), elsewhere entry by entry (``_inv_sqrt_series``).
    The defining identity U*U*(I+g) = I is checked before returning, on
    slices U = A/e, g = G/D with U = I mod x (A_0 = e*I): then A = e*I + x*a,
    G = x*h, A^2 = e^2*I + x*b for b = 2e*a + x*a^2, and the identity times
    e^2*D is e^2*h + D*b + x*b*h = 0 in degrees 0..k-2, two products of k - 2
    slices; elsewhere by the two products U*U*(I+g).
    """
    if g.nrows != g.ncols:
        raise IllFormed("inv_sqrt_one_plus needs a square matrix")
    spec, n = g.spec, g.nrows
    if (any(map(any, g._slice_form()[0][0])) if _layout(spec) is not None
            else not all(_is_nilpotent(spec, a) for row in g.cells for a in row)):
        raise NotNilpotent("entries must lie in the nilpotent ideal")
    if spec.kind != TRUNC_NIL or spec.base.kind == LAURENT2:
        out = _inv_sqrt_series(g)
        if not (out * out * (InvMatrix.identity(spec, n) + g)).is_identity():
            raise IdentityViolated("square-root identity violated")
        return out
    out, (k, p) = _inv_sqrt_slices(g), _layout(spec)
    (a0, *a), e = out._slice_form()
    (_, *h), den = g._slice_form()
    zero = [[0] * n] * n
    sq = _slice_products(a, a, k - 2, p) if k > 2 else []
    b = [[[2 * e * v + w for v, w in zip(vr, wr)] for vr, wr in zip(s, t)] for s, t in zip(a, [zero, *sq])]
    bh = _slice_products(b, h, k - 2, p) if k > 2 else []
    residue = (e * e * x + den * y + z for s, t, w in zip(h, b, [zero, *bh])
               for sr, tr, wr in zip(s, t, w) for x, y, z in zip(sr, tr, wr))
    if a0 != [[e * (r == c) for c in range(n)] for r in range(n)] or any(v % p if p else v for v in residue):
        raise IdentityViolated("square-root identity violated")
    return out


def _inv_sqrt_series(g: InvMatrix) -> InvMatrix:
    """sum_j C(-1/2, j) g^j by InvMatrix products, for any supported ring."""
    spec, n = g.spec, g.nrows
    out = power = InvMatrix.identity(spec, n)
    coeff = Fraction(1)
    bound = (spec.k or 1) * n + 1
    for j in range(1, bound + 1):
        power = power * g
        if power.is_zero():
            break
        coeff = coeff * Fraction(-1 - 2 * (j - 1), 2 * j)  # C(-1/2, j) recurrence
        out = out + power.scale(RingElem.from_fraction(spec, coeff))
    else:
        raise NotNilpotent("argument failed to nilpotate within the degree bound")
    return out


def _inv_sqrt_slices(g: InvMatrix) -> InvMatrix:
    """sum_j C(-1/2, j) g^j over B[x]/(x^k), B = fp, q or dyadic, in integers.

    g has no constant term, so g^j vanishes for j >= k and m = k - 1 terms
    suffice.  With g = G/D in slice form and C(-1/2, j) =
    (-1)^j C(2j, j) / 4^j the sum is
    U = sum_{j<=m} (-1)^j C(2j, j) (4D)^(m-j) G^j / (4D)^m, accumulated in
    integers over the one denominator (4D)^m (a unit mod p over fp).
    With G = x*h, G^j = x^j h^j, so only the k - j slices of h^j that
    survive the shift are multiplied, and they are added from degree j up.
    """
    spec, n = g.spec, g.nrows
    k, m = spec.k, spec.k - 1
    (_, *h), den = g._slice_form()
    coeffs = [(-1) ** j * comb(2 * j, j) * (4 * den) ** (m - j) for j in range(k)]
    # acc[d] is the degree-d slice of the scaled sum, starting at coeffs[0] * I
    acc = [[[coeffs[0] if d == 0 and r == c else 0 for c in range(n)] for r in range(n)] for d in range(k)]
    for j in range(1, k):
        power = _slice_products(power, h, k - j) if j > 1 else h
        c = coeffs[j]
        acc[j:] = [[[u + c * v for u, v in zip(ur, vr)] for ur, vr in zip(us, vs)] for us, vs in zip(acc[j:], power)]
    return _canonical(spec, acc, (4 * den) ** m, n, n)
