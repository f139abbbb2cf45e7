"""``witt_class`` over Q against the pairwise reference.

``invariants_reference`` computes the Hasse symbols as the product over
every pair of diagonal entries and the discriminant by factoring the whole
determinant, as ``witt_class`` did before it worked on squarefree classes.
On random diagonal forms, sheared or not, both must agree field by field,
and so must the sum of the classes of two halves of the diagonal.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import invariants_reference as ref
from wittkit.forms import GramForm
from wittkit.intlinalg import matmul_int
from wittkit.invariants import WittClass, witt_class
from wittkit.rings import RingSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

Q = RingSpec.rationals()

# a few small primes, so that entries share and repeat them, and two beyond
# the trial division bound of the factoring
_PRIMES = (2, 3, 5, 7, 11, 13, 1031, 65537)
_factored = st.lists(st.sampled_from(_PRIMES), max_size=4).map(math.prod)


def _fields(c: WittClass) -> tuple:
    return (c.ring, c.dim_mod2, c.signature, c.disc, c.hasse, c.dyadic_disc_parity)


@st.composite
def _rational_diagonals(draw):
    n = draw(st.integers(0, 14))
    return [Fraction(draw(st.sampled_from((1, -1))) * draw(_factored), draw(_factored)) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(_rational_diagonals(), st.booleans(), st.data())
def test_rational_class_matches_pairwise_reference(entries, shear, data):
    # n from 0 to 14 covers both twists (-1)^(n(n-1)/2) and every count of
    # stripped planes mod 4; a shear makes diagonalize find another diagonal
    n = len(entries)
    want = ref.witt_class_q(entries)
    grid = [[e if i == j else 0 for j in range(n)] for i, e in enumerate(entries)]
    if shear and n > 1:
        t = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(n):
            i = data.draw(st.integers(0, n - 2))
            t[i][data.draw(st.integers(i + 1, n - 1))] = data.draw(st.sampled_from((1, -1, 2)))
        grid = matmul_int(matmul_int(list(map(list, zip(*t))), grid), t)
    assert _fields(witt_class(GramForm.from_rows(Q, grid))) == _fields(want)
    # a sum of classes multiplies the discriminants by gcd reduction
    k = data.draw(st.integers(0, n))
    total = witt_class(GramForm.diagonal(Q, entries[:k])) + witt_class(GramForm.diagonal(Q, entries[k:]))
    assert _fields(total) == _fields(want)


def test_a_sheared_diagonal_keeps_a_class_that_factors():
    # a pivot of least |value| would take 1 and 4 first and leave a diagonal
    # over the 32-digit semiprime 92650522361729991424412412012001, whose
    # factoring refuses; the least |a| b takes 131074 before the entries
    # sheared by it, 1 / 17180393476 and -65537 / 50
    entries = [Fraction(8), Fraction(1, 4), Fraction(131074), Fraction(1, 17180393476), Fraction(-2),
               Fraction(-65537, 50), Fraction(4), Fraction(66), Fraction(1)]
    n = len(entries)
    t = [[int(r == c) for c in range(n)] for r in range(n)]
    for i, j in ((0, 7), (2, 4), (0, 1), (2, 3), (3, 4), (3, 5)):
        t[i][j] = 1
    grid = [[e if i == j else 0 for j in range(n)] for i, e in enumerate(entries)]
    grid = matmul_int(matmul_int(list(map(list, zip(*t))), grid), t)
    assert _fields(witt_class(GramForm.from_rows(Q, grid))) == _fields(ref.witt_class_q(entries))
