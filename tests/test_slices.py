"""Slice storage of InvMatrix against the payload reference.

Over fp, q, dyadic and the truncated rings over them a matrix is k integer
slices over one canonical denominator.  Every operation on the slices is
compared here with the ring ops applied entry by entry to payload grids,
and every result is checked to be in canonical form.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

import matrices_reference as ref
from wittkit.lifting import embed_constants, reduce_mod_I
from wittkit.errors import IllFormed
from wittkit.matrices import InvMatrix, _slices_of, inv_sqrt_one_plus
from wittkit.rings import RingElem, RingSpec, canon_payload

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

RINGS = tuple(
    RingSpec.from_tag(tag)
    for tag in ("fp:5", "q", "dyadic", "truncnil:q:3", "truncnil:fp:7:4", "truncnil:dyadic:2")
)
# pairwise coprime denominators, so a common denominator really grows
DENS = (1, 2, 3, 4, 9, 10007, 65537, 2**61 - 1)


def _base(spec):
    return spec.base if spec.kind == "truncnil" else spec


def _scalars(base):
    if base.kind == "fp":
        return st.integers(0, base.p - 1)
    nums = st.integers(-10**12, 10**12)
    if base.kind == "q":
        return st.builds(Fraction, nums, st.sampled_from(DENS))
    return st.builds(lambda a, e: Fraction(a, 2**e), nums, st.integers(0, 70))


def _payloads(spec):
    scalars = _scalars(_base(spec))
    if spec.kind != "truncnil":
        return scalars
    return st.tuples(*[scalars] * spec.k)


def _grid(spec, nrows, ncols):
    row = st.tuples(*[_payloads(spec)] * ncols)
    return st.tuples(*[row] * nrows)


@st.composite
def _operands(draw, square=False, rings=RINGS):
    """A ring and two payload-built matrices a (n x l) and b (l x m)."""
    spec = draw(st.sampled_from(rings))
    n, l, m = [draw(st.integers(0, 4))] * 3 if square else [draw(st.integers(0, 4)) for _ in range(3)]
    a = InvMatrix(spec, draw(_grid(spec, n, l)), n, l)
    b = InvMatrix(spec, draw(_grid(spec, l, m)), l, m)
    return spec, a, b


def _assert_canonical(m):
    """The slice invariant, and a cells view of canonical payloads that
    converts back to the same slices."""
    spec = m.spec
    k = spec.k if spec.kind == "truncnil" else 1
    slices, den = m._slice_form()
    assert len(slices) == k
    assert all(len(s) == m.nrows and all(len(row) == m.ncols for row in s) for s in slices)
    entries = [v for s in slices for row in s for v in row]
    assert all(type(v) is int for v in entries)
    p = _base(spec).p
    if p:
        assert den == 1 and all(0 <= v < p for v in entries)
    else:
        assert den > 0 and math.gcd(den, *entries) == 1
    cells = m.cells
    assert all(type(row) is tuple for row in cells)
    for row in cells:
        for a in row:
            for c in a if spec.kind == "truncnil" else (a,):
                assert type(c) is (int if p else Fraction)
    assert _slices_of(spec, cells) == (slices, den)


def _fold(spec, x, y, ncols):
    """Reference product: one add/mul fold per output entry."""
    add, _, mul, _, _ = spec.ops
    out = []
    for row in x:
        out_row = []
        for c in range(ncols):
            acc = spec.zero
            for a, y_row in zip(row, y):
                acc = add(acc, mul(a, y_row[c]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_product_matches_the_fold(operands):
    spec, a, b = operands
    reference = _fold(spec, a.cells, b.cells, b.ncols)
    got = a * b
    assert got.shape == (a.nrows, b.ncols)
    _assert_canonical(got)
    assert got.cells == reference
    assert got == InvMatrix(spec, reference, a.nrows, b.ncols)


@settings(max_examples=150, deadline=None)
@given(_operands(square=True))
def test_entrywise_operations_match_the_ring_ops(operands):
    spec, a, b = operands
    add, neg, mul, _, _ = spec.ops
    half = canon_payload(spec, Fraction(1, 2))
    shape = a.shape
    cases = {
        "sum": (a + b, [[add(x, y) for x, y in zip(r, s)] for r, s in zip(a.cells, b.cells)]),
        "difference": (a - b, [[add(x, neg(y)) for x, y in zip(r, s)] for r, s in zip(a.cells, b.cells)]),
        "negation": (-a, [[neg(x) for x in r] for r in a.cells]),
        "scale by 1/2": (a.scale(RingElem(spec, half, _raw=True)), [[mul(half, x) for x in r] for r in a.cells]),
        "transpose": (a.transpose(), [list(col) for col in zip(*a.cells)] or [[] for _ in range(a.ncols)]),
        "conj_transpose": (a.conj_transpose(), [list(col) for col in zip(*a.cells)] or [[] for _ in range(a.ncols)]),
    }
    for name, (got, reference) in cases.items():
        _assert_canonical(got)
        assert got.cells == tuple(map(tuple, reference)), name
        assert got.shape == shape, name
    assert (a - a).is_zero() and (a - a) == InvMatrix.zeros(spec, *shape)


FP_RINGS = (RingSpec.from_tag("fp:5"), *(RingSpec.trunc_nil(RingSpec.prime_field(7), k) for k in range(1, 6)))


@settings(max_examples=150, deadline=None)
@given(_operands(square=True, rings=FP_RINGS), st.data())
def test_fp_results_are_reduced_as_they_are_computed(operands, data):
    # over F_p products, sums and scalings take % p in the pass that
    # computes them and skip the canonical pass: den 1, entries in [0, p)
    spec, a, b = operands
    add, neg, mul, _, _ = spec.ops
    s = data.draw(_payloads(spec))
    cases = {
        "product": (a * b, _fold(spec, a.cells, b.cells, b.ncols)),
        "sum": (a + b, [[add(x, y) for x, y in zip(r, t)] for r, t in zip(a.cells, b.cells)]),
        "difference": (a - b, [[add(x, neg(y)) for x, y in zip(r, t)] for r, t in zip(a.cells, b.cells)]),
        "scaling": (a.scale(RingElem(spec, s, _raw=True)), [[mul(s, x) for x in r] for r in a.cells]),
    }
    for name, (got, reference) in cases.items():
        _assert_canonical(got)
        assert got.cells == tuple(map(tuple, reference)), name


ID_RINGS = tuple(
    RingSpec.from_tag(tag)
    for tag in ("fp:5", "q", "dyadic", "laurent2", "truncnil:q:3", "truncnil:fp:7:2",
                "truncnil:dyadic:2", "truncnil:laurent2:2")
)


@pytest.mark.parametrize("spec", ID_RINGS, ids=str)
def test_is_identity_agrees_with_comparing_to_the_identity(spec):
    rng = random.Random(str(spec))
    k = spec.k if spec.kind == "truncnil" else 1

    def entry(i, j):
        # the identity's entry, now and then off in degree 0 or above
        e = [int(i == j)] + [0] * (k - 1)
        r = rng.random()
        if r < 0.1:
            e[0] = rng.choice((0, -1, 2, Fraction(1, 2)))
        elif r < 0.2 and k > 1:
            e[rng.randrange(1, k)] = rng.choice((1, -1))
        return e if spec.kind == "truncnil" else e[0]

    outcomes = set()
    for n, m in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (4, 4)]:
        ident = InvMatrix.identity(spec, n)
        cases = [InvMatrix.zeros(spec, n, m), ident.scale(Fraction(1, 2)), ident * ident, ident + ident - ident]
        if n:  # from_rows of no rows is 0 x 0
            cases += [InvMatrix.from_rows(spec, [[entry(i, j) for j in range(m)] for i in range(n)]) for _ in range(12)]
        for c in cases:
            expected = c.nrows == c.ncols and c == InvMatrix.identity(spec, c.nrows)
            assert c.is_identity() == expected, c
            outcomes.add(expected)
    assert outcomes == {True, False}


@settings(max_examples=150, deadline=None)
@given(_operands(square=True))
def test_det_matches_the_minor_expansion(operands):
    spec, a, b = operands
    assert a.det().payload == ref.det_minors(spec, a.cells)
    # and on a matrix whose cells are a view of its slices
    prod = a * b
    assert prod.det().payload == ref.det_minors(spec, prod.cells)


def _series_reference(spec, g):
    """sum_j C(-1/2, j) g^j with payload folds, until the power vanishes."""
    add, _, mul, is_zero, _ = spec.ops
    n = len(g)
    one = spec.one
    out = [[one if i == j else spec.zero for j in range(n)] for i in range(n)]
    power, coeff = out, Fraction(1)
    for j in range(1, spec.k + 1):
        power = _fold(spec, power, g, n)
        if all(is_zero(a) for row in power for a in row):
            break
        coeff *= Fraction(-1 - 2 * (j - 1), 2 * j)
        c = canon_payload(spec, coeff)
        out = [[add(x, mul(c, y)) for x, y in zip(r, s)] for r, s in zip(out, power)]
    return tuple(map(tuple, out))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([r for r in RINGS if r.kind == "truncnil"]), st.integers(0, 4), st.data())
def test_inv_sqrt_one_plus_matches_the_payload_series(spec, n, data):
    zero = spec.base.zero
    grid = data.draw(_grid(spec, n, n))
    grid = tuple(tuple((zero, *e[1:]) for e in row) for row in grid)
    got = inv_sqrt_one_plus(InvMatrix(spec, grid, n, n))
    _assert_canonical(got)
    assert got.cells == _series_reference(spec, grid)


@pytest.mark.parametrize("spec", RINGS, ids=str)
def test_equal_matrices_hash_alike_whatever_their_route(spec):
    rng = random.Random(str(spec))
    k = spec.k if spec.kind == "truncnil" else 1
    for n in range(4):
        for _ in range(4):
            rows = [[[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 4))) for _ in range(k)]
                     for _ in range(n)] for _ in range(n)]
            if spec.kind != "truncnil":
                rows = [[e[0] for e in row] for row in rows]
            built = InvMatrix.from_rows(spec, rows)
            # the same matrix by arithmetic: (2M + I) - I - M, and M * I
            ident = InvMatrix.identity(spec, n)
            reached = (built.scale(2) + ident) - ident - built
            via_product = built * ident
            loaded = InvMatrix.from_json(built.to_json())
            twice = built.transpose().transpose()
            routes = [built, reached, via_product, loaded, twice]
            for m in routes:
                assert m == built and built == m
                assert hash(m) == hash(built)
                assert m.cells == built.cells
            assert len(set(routes)) == 1


def test_reduce_and_embed_keep_canonical_slices():
    for base in (RingSpec.rationals(), RingSpec.prime_field(7), RingSpec.dyadic()):
        spec = RingSpec.trunc_nil(base, 3)
        # numerators 2 and 4 over 4 in degree 0, odd ones above: reducing
        # must divide out the common factor 2
        m = InvMatrix.from_rows(spec, [[[Fraction(1, 2), Fraction(1, 4)], [1, 0, Fraction(3, 4)]]])
        red = reduce_mod_I(m)
        _assert_canonical(red)
        assert red == InvMatrix.from_rows(base, [[Fraction(1, 2), 1]])
        up = embed_constants(red, spec)
        _assert_canonical(up)
        assert up == InvMatrix.from_rows(spec, [[Fraction(1, 2), 1]])


INT_RINGS = tuple(RingSpec.from_tag(tag) for tag in ("fp:3", "fp:5", "fp:7", "q", "dyadic"))


def _views(m):
    """Everything a caller can read of a matrix, pickled and copied too."""
    clones = (pickle.loads(pickle.dumps(m)), copy.deepcopy(m))
    return [(m.shape, hash(m), repr(m), m.cells)] + [(c.shape, hash(c), repr(c), c.cells) for c in clones]


@pytest.mark.parametrize("spec", INT_RINGS, ids=str)
def test_int_rows_enter_as_slice_0(spec):
    # int rows are slice 0 over den 1 (mod p over F_p), with cells left
    # lazy; the same matrix from Fraction, RingElem or bool entries goes
    # through the payloads and must read the same everywhere
    rng = random.Random(str(spec))
    for nrows, ncols in [(1, 1), (2, 3), (3, 2), (4, 4), (6, 6)]:
        for _ in range(6):
            ints = [[rng.choice((rng.randrange(-9, 10), rng.randrange(-2**70, 2**70))) for _ in range(ncols)]
                    for _ in range(nrows)]
            m = InvMatrix.from_rows(spec, ints)
            assert m._cells is None
            _assert_canonical(m)
            rows = [row[:] for row in ints]
            kept = InvMatrix.from_rows(spec, rows)
            rows[0][0] += 1  # the matrix keeps its own copy of the rows
            assert kept == m
            reference = InvMatrix(spec, tuple(tuple(canon_payload(spec, e) for e in row) for row in ints),
                                  nrows, ncols)
            for other in (
                InvMatrix.from_rows(spec, [[Fraction(e) for e in row] for row in ints]),
                InvMatrix.from_rows(spec, [[RingElem(spec, e) for e in row] for row in ints]),
                InvMatrix.from_rows(spec, [tuple(row) for row in ints]),
                InvMatrix.from_rows(spec, (iter(row) for row in ints)),  # rows read once
                reference,
            ):
                assert m == other and other == m
                assert _views(InvMatrix.from_rows(spec, ints)) == _views(other)
            assert pickle.loads(pickle.dumps(m)) == m == copy.deepcopy(m)
    # bool entries are not ints here: they are cooked, and read as 0 and 1
    flags = InvMatrix.from_rows(spec, [[True, False], [False, True]])
    assert flags._cells is not None
    assert flags == InvMatrix.from_rows(spec, [[1, 0], [0, 1]]) == InvMatrix.identity(spec, 2)
    assert _views(flags) == _views(InvMatrix.from_rows(spec, [[1, 0], [0, 1]]))
    # mixed rows take the payload route as a whole
    mixed = InvMatrix.from_rows(spec, [[1, Fraction(2)], [3, 4]])
    assert mixed == InvMatrix.from_rows(spec, [[1, 2], [3, 4]])
    assert _views(mixed) == _views(InvMatrix.from_rows(spec, [[1, 2], [3, 4]]))
    # the empty shapes and ragged rows behave as on the payload route
    assert _views(InvMatrix.from_rows(spec, [])) == _views(InvMatrix(spec, (), 0, 0))
    assert _views(InvMatrix.from_rows(spec, [[]])) == _views(InvMatrix(spec, ((),), 1, 0))
    assert InvMatrix.from_rows(spec, [[]]) == InvMatrix(spec, ((),), 1, 0)
    for ragged in ([[1, 2], [3]], [[1], []], [[1, Fraction(1, 2)], [3]]):
        with pytest.raises(IllFormed, match="ragged rows"):
            InvMatrix.from_rows(spec, ragged)
