"""The integer congruence of ``forms`` against the Fraction reference.

``diagonalize`` and ``witt_decompose`` keep their Gram and basis grids as
integers over one denominator.  ``congruence_reference`` holds the same
steps on Fraction grids; on random forms over fp:5, fp:7, q and dyadic,
with zero diagonals, swaps and skew forms among them, both must return
bit-identical matrices (or raise the same error), every returned matrix in
the canonical slice form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import congruence_reference as ref
from wittkit.errors import DegenerateForm
from wittkit.forms import GramForm, diagonalize, witt_decompose
from wittkit.intlinalg import matmul_int
from wittkit.rings import RingSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

RINGS = tuple(RingSpec.from_tag(tag) for tag in ("fp:5", "fp:7", "q", "dyadic"))
UNITS = {"fp": (1, 2, 3), "q": (1, -1, 2, -3, 5, Fraction(1, 3)), "dyadic": (1, -1, 2, -2, Fraction(1, 2), 4)}
STEPS = {"fp": (1, 2, -1), "q": (1, -1, 2, Fraction(1, 2), Fraction(-2, 3)), "dyadic": (1, -1, 2, Fraction(-1, 2))}


@st.composite
def _forms(draw):
    """A nondegenerate form: hyperbolic planes plus unit diagonal entries,
    moved by random shears and swaps, or a random dense symmetric grid."""
    spec = draw(st.sampled_from(RINGS))
    eps = draw(st.sampled_from((1, 1, -1)))
    n = draw(st.integers(0, 8))
    if eps == -1:
        n -= n % 2
    if eps == 1 and spec.kind != "dyadic" and draw(st.booleans()):
        entry = st.integers(-3, 3) if spec.kind == "fp" else st.sampled_from((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = draw(entry)
    else:
        planes = draw(st.integers(0, n // 2)) if eps == 1 else n // 2
        grid = [[0] * n for _ in range(n)]
        for k in range(planes):
            grid[2 * k][2 * k + 1], grid[2 * k + 1][2 * k] = 1, eps
        for k in range(2 * planes, n):
            grid[k][k] = draw(st.sampled_from(UNITS[spec.kind]))
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            t = [[int(r == c) for c in range(n)] for r in range(n)]
            if i == j or draw(st.booleans()):
                t[i][i] = t[j][j] = 0
                t[i][j] = t[j][i] = 1  # a swap (the identity when i == j)
            else:
                t[i][j] = draw(st.sampled_from(STEPS[spec.kind]))
            grid = matmul_int(matmul_int(list(map(list, zip(*t))), grid), t)
    try:
        return GramForm.from_rows(spec, grid, eps)
    except DegenerateForm:
        hypothesis.assume(False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same refusal, or the same bug, on both sides
        return (type(exc).__name__, str(exc))


def _assert_canonical(m):
    (grid,), den = m._slice_form()
    entries = [v for row in grid for v in row]
    assert all(type(v) is int for v in entries)
    if m.spec.p:
        assert den == 1 and all(0 <= v < m.spec.p for v in entries)
    else:
        assert den > 0 and math.gcd(den, *entries) == 1


@settings(max_examples=200, deadline=None)
@given(_forms(), st.integers(1, 3))
def test_congruence_matches_the_fraction_reference(f, bound):
    if f.epsilon == 1:
        got, want = _outcome(diagonalize, f), _outcome(ref.diagonalize, f)
        if isinstance(want, tuple) and isinstance(want[0], str):
            assert got == want
        else:
            (p, d), (p_ref, d_ref) = got, want
            assert p == p_ref and d == d_ref
            assert p.cells == p_ref.cells and d.gram.cells == d_ref.gram.cells
            _assert_canonical(p)
            _assert_canonical(d.gram)
    got, want = _outcome(witt_decompose, f, bound), _outcome(ref.witt_decompose, f, bound)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got == want
        assert got.change_of_basis.cells == want.change_of_basis.cells
        assert got.anisotropic.gram.cells == want.anisotropic.gram.cells
        _assert_canonical(got.change_of_basis)
        _assert_canonical(got.anisotropic.gram)
