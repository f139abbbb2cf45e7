"""Determinants and inverses against the minor-by-minor reference.

``matrices`` takes the determinant over Laurent and truncated rings, and
every inverse, from Berkowitz's characteristic polynomial; over fp, q and
dyadic the determinant is Bareiss.  ``matrices_reference`` expands minors
instead.  On random square matrices of order 0-6 over seven rings, dense,
invertible by construction or singular by construction, ``det``, the
constant term of the charpoly and ``det_and_inverse`` must all agree with
it, the inverse bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import matrices_reference as ref
from wittkit.matrices import InvMatrix, _charpoly
from wittkit.rings import RingElem, RingSpec, canon_payload

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

RINGS = tuple(
    RingSpec.from_tag(tag)
    for tag in ("fp:5", "q", "dyadic", "laurent2", "truncnil:q:3", "truncnil:fp:7:2", "truncnil:laurent2:2")
)


def _scalar(base, rng, unit=False):
    """A payload of a base ring; a unit of it when ``unit``."""
    sign = rng.choice((1, -1))
    if base.kind == "fp":
        return rng.randrange(1 if unit else 0, base.p)
    if base.kind == "q":
        return Fraction(sign * rng.randrange(1 if unit else 0, 10), rng.choice((1, 2, 3, 5, 7)))
    if base.kind == "dyadic":
        if unit:
            return sign * Fraction(2) ** rng.randrange(-2, 3)
        return Fraction(rng.randrange(-9, 10), 2 ** rng.randrange(4))
    if unit:
        key = (rng.randrange(-1, 2), rng.randrange(-1, 2))
        return canon_payload(base, [(key, sign * Fraction(2) ** rng.randrange(-2, 3))])
    # one monomial, zero half the time, so that the powers of a 6x6 matrix
    # keep few terms
    key = (rng.randrange(-1, 2), rng.randrange(-1, 2))
    return canon_payload(base, [(key, rng.randrange(-3, 4))] if rng.random() < 0.5 else [])


def _payload(spec, rng, unit=False):
    if spec.kind != "truncnil":
        return _scalar(spec, rng, unit)
    return (_scalar(spec.base, rng, unit), *[_scalar(spec.base, rng) for _ in range(spec.k - 1)])


@st.composite
def _square(draw):
    """A ring, a shape and an n x n matrix of that shape; the entries come
    from a random generator the test draws, which keeps drawing cheap."""
    spec = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(("dense", "invertible", "singular")))
    rng = draw(st.randoms(use_true_random=False))
    zero, one = spec.zero, spec.one
    grid = [[_payload(spec, rng) for _ in range(n)] for _ in range(n)]
    m = InvMatrix(spec, tuple(map(tuple, grid)), n, n)
    if shape == "invertible" and n:
        # unitriangular factors from the grid around a diagonal of units
        lower = [[one if i == j else grid[i][j] if j < i else zero for j in range(n)] for i in range(n)]
        upper = [[one if i == j else grid[i][j] if j > i else zero for j in range(n)] for i in range(n)]
        units = InvMatrix.diagonal(spec, [RingElem(spec, _payload(spec, rng, unit=True), _raw=True) for _ in range(n)])
        m = InvMatrix.from_rows(spec, lower) * units * InvMatrix.from_rows(spec, upper)
    elif shape == "singular" and n:
        # the last row a combination of the others (zero when there are none)
        add, _, mul, _, _ = spec.ops
        last = [zero] * n
        for row in grid[:-1]:
            c = _payload(spec, rng)
            last = [add(x, mul(c, y)) for x, y in zip(last, row)]
        m = InvMatrix(spec, tuple(map(tuple, grid[:-1] + [last])), n, n)
    return spec, shape, m


@settings(max_examples=100, deadline=None)
@given(_square())
def test_det_charpoly_and_inverse_match_the_minors(case):
    spec, shape, m = case
    n = m.nrows
    want = ref.det_minors(spec, m.cells)
    assert m.det().payload == want
    add, neg = spec.ops.add, spec.ops.neg
    c = _charpoly(spec.ops, m.cells, spec.one)
    assert len(c) == n + 1 and c[0] == spec.one
    assert (c[-1] if n % 2 == 0 else neg(c[-1])) == want
    if n:
        # c_1 = -trace
        assert add(c[1], m.trace().payload) == spec.zero
    det, inv = m.det_and_inverse()
    assert det.payload == want
    expected = ref.inverse_by_minors(m)
    assert (inv is None) == (expected is None)
    assert inv is not None or shape != "invertible"
    if inv is not None:
        assert inv == expected and inv.cells == expected.cells
