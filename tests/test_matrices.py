"""Matrix layer: exact arithmetic, determinants, inverses, square roots."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

import matrices_reference as ref
from wittkit import matrices
from wittkit.errors import IdentityViolated, IllFormed, NonUnit, SpecMismatch
from wittkit.lifting import SelfAdjInvolution, reduce_mod_I
from wittkit.matrices import (
    InvMatrix,
    _canonical,
    _charpoly,
    _inv_sqrt_series,
    _matmul,
    inv_sqrt_one_plus,
)
from wittkit.rings import RingElem, RingSpec, canon_payload, nil_generator

Q = RingSpec.rationals()
F5 = RingSpec.prime_field(5)
L2 = RingSpec.laurent2()


def _det_by_cofactors(m: InvMatrix) -> RingElem:
    """Independent determinant: first-row cofactor expansion, no shortcuts."""
    n = m.nrows
    if n == 0:
        return RingElem.one(m.spec)
    if n == 1:
        return m[0, 0]
    total = RingElem.zero(m.spec)
    for j in range(n):
        rows = [
            [m[i, c] for c in range(n) if c != j]
            for i in range(1, n)
        ]
        sub = InvMatrix.from_rows(m.spec, rows)
        term = m[0, j] * _det_by_cofactors(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


def _random_matrix(spec: RingSpec, n: int, rng: random.Random) -> InvMatrix:
    return InvMatrix.from_rows(
        spec, [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
    )


def test_arithmetic_basics():
    a = InvMatrix.from_rows(Q, [[1, 2], [3, 4]])
    b = InvMatrix.from_rows(Q, [[0, 1], [1, 0]])
    assert (a + b) - b == a
    assert a * InvMatrix.identity(Q, 2) == a
    assert (a * b)[0, 0] == RingElem.from_fraction(Q, 2)
    assert a.scale(2) == a + a
    assert (-a) + a == InvMatrix.zeros(Q, 2, 2)
    assert a.trace() == RingElem.from_fraction(Q, 5)
    with pytest.raises(SpecMismatch):
        a + InvMatrix.identity(F5, 2)


def test_det_against_cofactor_expansion():
    rng = random.Random(7)
    for spec in (Q, F5):
        for n in range(1, 5):
            for _ in range(8):
                m = _random_matrix(spec, n, rng)
                assert m.det() == _det_by_cofactors(m)


def test_det_multiplicative():
    rng = random.Random(8)
    for _ in range(15):
        a = _random_matrix(Q, 3, rng)
        b = _random_matrix(Q, 3, rng)
        assert (a * b).det() == a.det() * b.det()


def test_inverse_and_nonunit():
    m = InvMatrix.from_rows(Q, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m * inv == InvMatrix.identity(Q, 2)
    assert inv * m == InvMatrix.identity(Q, 2)
    with pytest.raises(NonUnit):
        InvMatrix.from_rows(Q, [[1, 2], [2, 4]]).inverse()
    # dyadic: determinant must be a unit, not merely nonzero
    dy = RingSpec.dyadic()
    with pytest.raises(NonUnit):
        InvMatrix.from_rows(dy, [[3]]).inverse()
    assert InvMatrix.from_rows(dy, [[2]]).inverse()[0, 0] == RingElem.from_fraction(
        dy, Fraction(1, 2)
    )


def test_block_diag_and_kron():
    a = InvMatrix.from_rows(Q, [[2]])
    b = InvMatrix.from_rows(Q, [[0, 1], [1, 0]])
    blk = InvMatrix.block_diag([a, b])
    assert blk.shape == (3, 3)
    assert blk.det() == a.det() * b.det()
    k = InvMatrix.kron(a, b)
    assert k == b.scale(2)
    k2 = InvMatrix.kron(b, b)
    assert k2.shape == (4, 4)
    assert k2 * k2 == InvMatrix.identity(Q, 4)


def test_conj_transpose_uses_involution():
    t = RingElem.monomial(1, t_exp=1)
    m = InvMatrix.from_rows(L2, [[t, RingElem.one(L2)], [RingElem.zero(L2), t]])
    star = m.conj_transpose()
    assert star[0, 0] == t.involute()
    assert star[0, 1] == RingElem.zero(L2)
    assert star[1, 0] == RingElem.one(L2)
    assert (m * m).conj_transpose() == star * star


def test_unitary_and_self_adjoint_flags():
    j = InvMatrix.from_rows(Q, [[0, 1], [1, 0]])
    assert j.is_self_adjoint()
    assert j.is_unitary()
    assert not InvMatrix.from_rows(Q, [[0, 2], [2, 0]]).is_unitary()


def test_inv_sqrt_one_plus_nilpotent():
    spec = RingSpec.trunc_nil(Q, 4)
    x = nil_generator(spec)
    g = InvMatrix.diagonal(spec, [x, x * x])
    s = inv_sqrt_one_plus(g)
    ident = InvMatrix.identity(spec, 2)
    assert s * s * (ident + g) == ident
    # commutes with 1 + g, so either order works
    assert (ident + g) * s * s == ident
    assert inv_sqrt_one_plus(InvMatrix.zeros(spec, 3, 3)) == InvMatrix.identity(spec, 3)


def test_inv_sqrt_one_plus_offdiagonal():
    spec = RingSpec.trunc_nil(F5, 3)
    x = nil_generator(spec)
    zero = RingElem.zero(spec)
    g = InvMatrix.from_rows(spec, [[zero, x], [x * x, zero]])
    s = inv_sqrt_one_plus(g)
    ident = InvMatrix.identity(spec, 2)
    assert s * s * (ident + g) == ident


def test_map_entries():
    m = InvMatrix.from_rows(Q, [[1, -2], [3, 0]])
    doubled = m.map_entries(lambda e: e + e)
    assert doubled == m.scale(2)


def test_json_roundtrip():
    rng = random.Random(9)
    for spec in (Q, F5, RingSpec.dyadic()):
        for _ in range(5):
            m = _random_matrix(spec, 3, rng)
            assert InvMatrix.from_json(m.to_json()) == m
    t = RingElem.monomial(Fraction(1, 2), 1, -1)
    m = InvMatrix.from_rows(L2, [[t, t * t], [RingElem.one(L2), t.involute()]])
    back = InvMatrix.from_json(m.to_json())
    assert back == m
    assert back.to_json()["ring"] == {"ring": "laurent2"}


# -- the shared product kernel against a plain fold -----------------------------

DY = RingSpec.dyadic()
_KERNEL_RINGS = (F5, RingSpec.prime_field(7), Q, DY, L2) + tuple(
    RingSpec.trunc_nil(base, k) for base in (F5, Q, DY, L2) for k in (1, 2, 4)
)
_KERNEL_SHAPES = ((0, 3, 2), (1, 3, 4), (1, 1, 1), (3, 1, 3), (2, 5, 3), (4, 4, 4), (3, 2, 0))
# large, pairwise coprime denominators: a common denominator for the whole
# matrix would be their product
_COPRIME_DENS = (1, 3, 10007, 65537, 999983, 2**61 - 1)


def _fold_product(spec, x, y, ncols):
    """Reference product: one add/mul fold per output entry."""
    zero = spec.zero
    out = []
    for row in x:
        out_row = []
        for c in range(ncols):
            acc = zero
            for a, y_row in zip(row, y):
                acc = spec.ops.add(acc, spec.ops.mul(a, y_row[c]))
            out_row.append(acc)
        out.append(out_row)
    return out


def _random_scalar(base, rng):
    if rng.random() < 0.2:
        return base.zero
    if base.kind == "fp":
        return rng.randrange(base.p)
    if base.kind == "q":
        return Fraction(rng.randrange(-10**9, 10**9), rng.choice(_COPRIME_DENS))
    if base.kind == "dyadic":
        return Fraction(rng.randrange(-999, 1000), 2 ** rng.randrange(0, 40))
    terms = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), Fraction(rng.randrange(-5, 6), 2 ** rng.randrange(3)))
             for _ in range(rng.randrange(3))]
    return canon_payload(base, terms)


def _random_payload(spec, rng):
    if spec.kind != "truncnil":
        return _random_scalar(spec, rng)
    return tuple(_random_scalar(spec.base, rng) for _ in range(spec.k))


def _assert_canonical(spec, a):
    base = spec.base if spec.kind == "truncnil" else spec
    if spec.kind == "truncnil":
        assert type(a) is tuple and len(a) == spec.k
    for c in a if spec.kind == "truncnil" else (a,):
        if base.kind == "fp":
            assert type(c) is int and 0 <= c < base.p
        elif base.kind in ("q", "dyadic"):
            assert type(c) is Fraction and c.denominator > 0
            assert math.gcd(c.numerator, c.denominator) == 1
            assert base.kind == "q" or c.denominator & (c.denominator - 1) == 0
        else:
            assert c == canon_payload(base, list(c))


@pytest.mark.parametrize("spec", _KERNEL_RINGS, ids=str)
def test_matmul_kernel_matches_fold(spec):
    rng = random.Random(str(spec))
    for n, l, m in _KERNEL_SHAPES:
        for _ in range(3):
            x = [[_random_payload(spec, rng) for _ in range(l)] for _ in range(n)]
            y = [[_random_payload(spec, rng) for _ in range(m)] for _ in range(l)]
            got = _matmul(spec, x, y)
            assert got == _fold_product(spec, x, y, m)
            for row in got:
                for a in row:
                    _assert_canonical(spec, a)
            a = InvMatrix(spec, tuple(map(tuple, x)), n, l)
            b = InvMatrix(spec, tuple(map(tuple, y)), l, m)
            assert (a * b).cells == tuple(map(tuple, got))


def test_matmul_through_an_empty_inner_dimension():
    for spec in (F5, Q, RingSpec.trunc_nil(Q, 3), L2):
        prod = InvMatrix.zeros(spec, 2, 0) * InvMatrix.zeros(spec, 0, 3)
        assert prod == InvMatrix.zeros(spec, 2, 3)


def test_transpose_of_empty_matrices():
    for spec in (F5, Q, RingSpec.trunc_nil(Q, 3), L2, RingSpec.trunc_nil(L2, 2)):
        for nrows, ncols in ((0, 3), (3, 0), (0, 0)):
            flipped = InvMatrix.zeros(spec, nrows, ncols).transpose()
            assert flipped == InvMatrix.zeros(spec, ncols, nrows)
            assert flipped.cells == ((),) * ncols


# -- Bareiss elimination against the minor expansion ---------------------------

F7 = RingSpec.prime_field(7)


def _singular(spec, grid, rng):
    """The grid with its last row replaced by a combination of the others."""
    n = len(grid)
    c = [_random_scalar(spec, rng) for _ in range(n - 1)]
    last = [spec.zero] * n
    for ci, row in zip(c, grid):
        last = [spec.ops.add(x, spec.ops.mul(ci, y)) for x, y in zip(last, row)]
    return grid[:-1] + [last]


@pytest.mark.parametrize("spec", (F7, Q, DY), ids=str)
def test_bareiss_det_matches_minor_expansion(spec):
    rng = random.Random(str(spec))
    one = canon_payload(spec, 1)
    grids = [
        # zero pivots: at the start, and in the middle of the elimination
        [[spec.zero, one], [one, spec.zero]],
        [[one, one, spec.zero], [one, one, one], [spec.zero, one, one]],
        # no nonzero entry in a pivot column, so no row to swap in
        [[one, one, one], [spec.zero] * 3, [spec.zero, spec.zero, one]],
    ]
    for n in range(8):
        for _ in range(12):
            grid = [[_random_payload(spec, rng) for _ in range(n)] for _ in range(n)]
            grids.append(grid)
            if n > 1:
                grids.append(_singular(spec, grid, rng))
    singular = 0
    for grid in grids:
        d = InvMatrix(spec, tuple(map(tuple, grid)), len(grid), len(grid)).det().payload
        assert d == ref.det_minors(spec, grid)
        _assert_canonical(spec, d)
        singular += d == spec.zero
    assert singular >= 6 * 12


def test_dense_20x20_det_is_the_product_of_its_lu_diagonals():
    rng = random.Random(20)
    n = 20

    def entry():
        return Fraction(rng.randrange(1, 10**9) * rng.choice((1, -1)), rng.choice(_COPRIME_DENS))

    lower = [[entry() if j < i else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[entry() if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    expected = Fraction(1)
    for i in range(n):
        lower[i][i] = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        upper[i][i] = Fraction(rng.choice([-2, 1, 3, 4]), rng.choice([1, 3, 5]))
        expected *= lower[i][i] * upper[i][i]
    m = InvMatrix.from_rows(Q, lower) * InvMatrix.from_rows(Q, upper)
    assert all(not c.is_zero() for c in (m[i, j] for i in range(n) for j in range(n)))
    assert m.det() == RingElem.from_fraction(Q, expected)


def test_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    for spec in (F7, Q, DY):
        for n in (1, 4, 9, 12):
            grid = [[_random_payload(spec, rng) for _ in range(n)] for _ in range(n)]
            want = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in grid]).det()
            want = Fraction(int(want.p), int(want.q))
            if spec.kind == "fp":
                want = want.numerator % spec.p
            assert InvMatrix.from_rows(spec, grid).det().payload == want


def test_charpoly_and_inverse_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    for n in (1, 4, 7, 10):
        grid = [[_random_payload(Q, rng) for _ in range(n)] for _ in range(n)]
        m = InvMatrix.from_rows(Q, grid)
        s = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in grid])
        want = [Fraction(int(c.p), int(c.q)) for c in s.charpoly().all_coeffs()]
        assert _charpoly(Q.ops, m.cells, Fraction(1)) == want
        # on the numerators N = den * m, c_i(N) = den^i c_i(m)
        (numerators,), den = m._slice_form()
        assert _charpoly(Q.ops, numerators, 1) == [c * den**i for i, c in enumerate(want)]
        det, inv = m.det_and_inverse()
        assert det.payload == want[-1] * (-1) ** n
        if inv is not None:
            want_inv = [[Fraction(int(c.p), int(c.q)) for c in row] for row in s.inv().tolist()]
            assert inv == InvMatrix.from_rows(Q, want_inv)


def test_dense_16x16_det_over_truncated_q_is_polynomial_time():
    # the minor expansion, O(2^n n), took 5-12 s here; the charpoly takes
    # about 0.3 s on a 2-vCPU machine
    spec = RingSpec.from_tag("truncnil:q:2")
    rng = random.Random(16)

    def entry():
        return Fraction(rng.choice((1, -1)) * rng.randrange(1, 10), rng.randrange(1, 5))

    n = 16
    rows = [[(entry(), entry()) for _ in range(n)] for _ in range(n)]
    m = InvMatrix.from_rows(spec, rows)
    start = time.perf_counter()
    d = m.det().payload
    assert time.perf_counter() - start < 2.0
    # constant term: Bareiss on slice 0; x term: det(A_0) tr(A_0^(-1) A_1) (Jacobi)
    a0 = InvMatrix.from_rows(Q, [[e[0] for e in row] for row in rows])
    a1 = InvMatrix.from_rows(Q, [[e[1] for e in row] for row in rows])
    det0, inv0 = a0.det_and_inverse()
    assert d[0] == det0.payload != 0
    assert d[1] == det0.payload * (inv0 * a1).trace().payload


# -- (I + g)^(-1/2) on integer slices against the InvMatrix series -------------


def _random_nilpotent(spec, n, rng):
    """n x n over B[x]/(x^k) with no constant terms, so I + g is invertible."""
    zero = spec.base.zero
    grid = tuple(tuple((zero, *_random_payload(spec, rng)[1:]) for _ in range(n)) for _ in range(n))
    return InvMatrix(spec, grid, n, n)


@pytest.mark.parametrize("base", (F5, F7, Q, DY), ids=str)
def test_inv_sqrt_slices_match_the_generic_series(base):
    rng = random.Random(str(base))
    for k in range(1, 7):
        spec = RingSpec.trunc_nil(base, k)
        for n in range(6):
            for _ in range(2):
                g = _random_nilpotent(spec, n, rng)
                got = inv_sqrt_one_plus(g)
                assert got.shape == (n, n)
                assert got == _inv_sqrt_series(g)
                for row in got.cells:
                    for a in row:
                        _assert_canonical(spec, a)


@pytest.mark.parametrize("base", (F5, Q, DY), ids=str)
def test_slice_check_of_the_square_root_agrees_with_the_full_identity(base, monkeypatch):
    # inv_sqrt_one_plus checks U*U*(I + g) = I and U = I mod x on the slices
    # above degree 0; fed the series, the series with one entry of one degree
    # moved by +-1, or the series with U_0 = -I, it must refuse exactly when
    # the full product or the congruence fails
    rng = random.Random(str(base))
    real = matrices._inv_sqrt_slices
    outcomes = set()
    for k in range(1, 7):
        spec = RingSpec.trunc_nil(base, k)
        for n in range(1, 5):
            g = _random_nilpotent(spec, n, rng)
            series = real(g)
            assert series == _inv_sqrt_series(g)
            slices, den = series._slice_form()
            variants = [series]
            for d in range(k):
                moved = [[list(row) for row in s] for s in slices]
                moved[d][rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
                variants.append(_canonical(spec, moved, den, n, n))
            flipped = [[[-den * (r == c) for c in range(n)] for r in range(n)], *slices[1:]]
            variants.append(_canonical(spec, flipped, den, n, n))
            ident = InvMatrix.identity(spec, n)
            for u in variants:
                full = (u * u * (ident + g)).is_identity()
                congruent = reduce_mod_I(u).is_identity()
                # U_0 = -I is a root of the full identity only when g = 0
                assert congruent or not full or g.is_zero()
                monkeypatch.setattr(matrices, "_inv_sqrt_slices", lambda _, u=u: u)
                try:
                    held = inv_sqrt_one_plus(g) is u
                except IdentityViolated:
                    held = False
                assert held == (full and congruent), (k, n, u, g)
                outcomes.add(held)
    assert outcomes == {True, False}


# -- the lifting identities on slices against the products -------------------------


def _random_orthogonal(spec, n, rng):
    """A signed permutation times the Cayley transform (I + K)(I - K)^(-1) of
    a skew K with entries in every degree: X X^T = I, with denominators over
    Q and Z[1/2].  Over Z[1/2] or F_p, I - K_0 may be singular; K_0 = 0
    after 20 draws makes I - K unipotent."""
    k = spec.k or 1
    ident = InvMatrix.identity(spec, n)
    perm = rng.sample(range(n), n)
    signed = [[rng.choice((1, -1)) * (perm[r] == c) for c in range(n)] for r in range(n)]
    for tries in range(21):
        grids = [[[0] * n for _ in range(n)] for _ in range(k)]
        for d, grid in enumerate(grids):
            for r in range(n):
                for c in range(r + 1, n):
                    grid[r][c] = rng.randrange(-2, 3) if d or tries < 20 else 0
                    grid[c][r] = -grid[r][c]
        skew = _canonical(spec, grids, 1, n, n)
        _, inv = (ident - skew).det_and_inverse()
        if inv is not None:
            zeros = [[[0] * n for _ in range(n)] for _ in range(k - 1)]
            return _canonical(spec, [signed, *zeros], 1, n, n) * (ident + skew) * inv
    raise AssertionError("I - K stayed singular with K_0 = 0")


def _moved(m, rng, mirror=0):
    """m with one numerator moved by +-1, once in each degree above, on and
    below the diagonal; with ``mirror`` = +-1 its mirror entry moves too, by
    ``mirror`` times as much, which keeps m symmetric or skew."""
    slices, den = m._slice_form()
    n, out = m.nrows, []
    for d in range(len(slices)):
        for side in (1, 0, -1):  # above, on and below the diagonal
            spots = [(r, c) for r in range(n) for c in range(n) if (c > r) - (c < r) == side]
            if not spots:
                continue
            (r, c), step = rng.choice(spots), rng.choice((1, -1))
            grids = [[list(row) for row in s] for s in slices]
            grids[d][r][c] += step
            if mirror and r != c:
                grids[d][c][r] += mirror * step
            out.append(_canonical(m.spec, grids, den, n, n))
    return out


def _tripled(m, p):
    """The slices of m times 3 (residues mod p if p is given), and its
    denominator times 3: 3A over 3e."""
    slices, den = m._slice_form()
    return [[[3 * v % p if p else 3 * v for v in row] for row in s] for s in slices], 3 * den


def _random_slices(spec, n, rng, dens, eps=0):
    """A random n x n matrix over ``spec`` from small numerators in every
    degree; eps-symmetric in every degree if eps is +-1."""
    grids = [[[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)] for _ in range(spec.k or 1)]
    for grid in grids if eps else ():
        for r in range(n):
            grid[r][r] *= eps == 1
            for c in range(r):
                grid[r][c] = eps * grid[c][r]
    return _canonical(spec, grids, rng.choice(dens), n, n)


@pytest.mark.parametrize("base", (Q, F5, F7, DY), ids=str)
def test_slice_checks_agree_with_the_products(base):
    # matrices._congruent_to decides X (G/dg) X* = T/dt on integer slices
    # for the forms certificates and the lifting checks alike; each verdict
    # must agree with the InvMatrix products.  First an eps-symmetric G
    # (eps = +-1 at every k, n = 0 included) and T = X G X* itself, then
    # with one numerator moved in each degree above, on and below the
    # diagonal, moved at a mirrored pair (still eps-symmetric), with the
    # lower triangle of one degree negated (not eps-symmetric, the upper
    # triangle as it was), X with one numerator moved, and T, X and G each
    # given as 3A over 3e.  Then the lifting identities: is_unitary
    # (X X* = I), the J^2 = I check of SelfAdjInvolution and X J1 X* = J2
    # of conjugating_unitary, on Cayley-transform orthogonals, their
    # involutions, moved numerators, a J with J^2 = I that is not
    # symmetric (as a target too), and 3A over 3e
    rng = random.Random(str(base))
    p = base.p
    dens = (1,) if p else (1, 2, 4) if base == DY else (1, 2, 3, 6)
    seen = {"congruent": set(), "unitary": set(), "involution": set(), "conjugate": set()}

    def agrees(eps, x, t, g):
        """The kernel's verdict on (slices, den) pairs, None for I, against the products."""
        n = len(x[0][0])
        xm, tm, gm = (None if a is None else _canonical(spec, *a, n, n) for a in (x, t, g))
        prod = (xm if gm is None else xm * gm) * xm.conj_transpose()
        held = matrices._congruent_to(p, eps, *x, *(t or (None, 1)), *(g or (None, 1)))
        assert held == (prod.is_identity() if tm is None else prod == tm), (spec, eps, x, t, g)
        seen["congruent"].add(held)
        return held

    for spec in (base, *(RingSpec.trunc_nil(base, k) for k in range(1, 6))):
        for eps in (1, -1):
            for n in range(0, 9 if spec == base else 6):
                for _ in range(3 if spec == base else 1):
                    g, x = _random_slices(spec, n, rng, dens, eps), _random_slices(spec, n, rng, dens)
                    t = x * g * x.conj_transpose()
                    (*slices,), dt = t._slice_form()
                    d = rng.randrange(len(slices))
                    slices[d] = [[-v % p if p else -v for v in row[:r]] + row[r:] for r, row in enumerate(slices[d])]
                    xgt = (x._slice_form(), g._slice_form(), t._slice_form())
                    for u in (t, *_moved(t, rng), *_moved(t, rng, mirror=eps)):
                        agrees(eps, xgt[0], u._slice_form(), xgt[1])
                    agrees(eps, xgt[0], (slices, dt), xgt[1])
                    for m in _moved(x, rng):
                        agrees(eps, m._slice_form(), xgt[2], xgt[1])
                    assert agrees(eps, xgt[0], _tripled(t, p), xgt[1])
                    assert agrees(eps, _tripled(x, p), _tripled(t, p), _tripled(g, p))
                    if eps == 1:  # G left out: X X* = T
                        agrees(1, xgt[0], (x * x.conj_transpose())._slice_form(), None)
        assert agrees(1, InvMatrix.identity(spec, 0)._slice_form(), None, None)
        for n in range(1, 6):
            x, other = _random_orthogonal(spec, n, rng), _random_orthogonal(spec, n, rng)
            signs = InvMatrix.diagonal(spec, [rng.choice((1, -1)) for _ in range(n)])
            j1 = x * signs * x.conj_transpose()
            j2 = other * j1 * other.conj_transpose()
            upper = [[rng.randrange(-2, 3) * (c > r) + (c == r) for c in range(n)] for r in range(n)]
            noise = [[[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)] for _ in range((spec.k or 1) - 1)]
            shear = _canonical(spec, [upper, *noise], 1, n, n)  # unipotent mod x, so invertible
            skewed = shear * signs * shear.inverse()  # squares to I, rarely symmetric
            assert (skewed * skewed).is_identity()
            for u in (x, j1, skewed, *_moved(x, rng), *_moved(j1, rng)):
                held = u.is_unitary()
                assert held == (u * u.conj_transpose()).is_identity(), (spec, u)
                seen["unitary"].add(held)
            for u in (x, x.scale(3), *_moved(x, rng)):
                assert agrees(1, _tripled(u, p), None, None) == u.is_unitary()
            for j in (j1, j2, skewed, *_moved(j1, rng), *_moved(j1, rng, mirror=1)):
                try:
                    SelfAdjInvolution(j)
                    held = True
                except IllFormed:
                    held = False
                assert held == (j == j.conj_transpose() and (j * j).is_identity()), (spec, j)
                seen["involution"].add(held)
            # G = J1 is symmetric, as conjugating_unitary's SelfAdjInvolution is
            cases = [(other, j1, j2), (other, j1, skewed), (other, j2, j1)]
            cases += [(m, j1, j2) for m in _moved(other, rng)]
            cases += [(other, a, j2) for a in _moved(j1, rng, mirror=1)] + [(other, j1, b) for b in _moved(j2, rng)]
            for m, a, b in cases:
                held = m._is_congruence(b, a)
                assert held == (m * a * m.conj_transpose() == b), (spec, m, a, b)
                seen["conjugate"].add(held)
                # the same check of b given as 3B over 3db, of a as 3A over 3da
                assert agrees(1, m._slice_form(), _tripled(b, p), a._slice_form()) == held
                assert agrees(1, m._slice_form(), b._slice_form(), _tripled(a, p)) == held
            # scaling by a constant multiplies every slice by one integer
            c = RingElem.from_fraction(spec, Fraction(rng.choice((-3, 2, 5)), rng.choice((1, 2))))
            assert x.scale(c) == InvMatrix.diagonal(spec, [c] * n) * x
    assert all(v == {True, False} for v in seen.values()), seen
