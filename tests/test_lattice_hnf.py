"""``lattice_equal`` against sympy's Hermite normal form.

Two integer matrices with the same number of rows span the same column
lattice exactly when their column Hermite normal forms agree.  sympy 1.14's
``hermite_normal_form`` returns that form with its zero columns dropped,
so forms of matrices with different column counts compare directly.
"""

from __future__ import annotations

import random

import pytest

from wittkit.intlinalg import lattice_equal

sympy = pytest.importorskip("sympy")
hermite_normal_form = pytest.importorskip("sympy.matrices.normalforms").hermite_normal_form


def _hnf(a: list[list[int]], nrows: int):
    ncols = len(a[0]) if a else 0
    return hermite_normal_form(sympy.Matrix(nrows, ncols, [x for row in a for x in row]))


def _unimodular_columns(rng: random.Random, a: list[list[int]], steps: int) -> list[list[int]]:
    """a after random swaps, sign changes and additions of one column to another."""
    a = [row[:] for row in a]
    n = len(a[0]) if a else 0
    for _ in range(steps if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        move = rng.randrange(3)
        for row in a:
            if move == 0:
                row[i], row[j] = row[j], row[i]
            elif move == 1:
                row[i] = -row[i]
            elif i != j:
                row[i] += rng.randint(-3, 3) * row[j]
    return a


def _random_pair(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    m, n = rng.randint(0, 4), rng.randint(0, 4)
    rank = rng.randint(0, min(m, n))
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    a = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(n)] for row in left]
    kind = rng.randrange(4)
    if kind == 3:  # unrelated
        k = rng.randint(0, 4)
        return a, [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
    b = _unimodular_columns(rng, a, rng.randint(0, 8))
    for _ in range(rng.randint(0, 2)):  # redundant columns: combinations of the others
        coeffs = [rng.randint(-2, 2) for _ in range(len(b[0]) if b else 0)]
        for row in b:
            row.append(sum(c * x for c, x in zip(coeffs, row)))
    if kind == 2 and m and b and b[0]:  # scale one column: often a proper sublattice
        j = rng.randrange(len(b[0]))
        for row in b:
            row[j] *= rng.choice((-2, 2, 3))
    return (b, a) if rng.random() < 0.5 else (a, b)


def test_lattice_equal_agrees_with_hermite_normal_forms():
    rng = random.Random(71)
    verdicts = []
    for _ in range(600):
        a, b = _random_pair(rng)
        want = _hnf(a, len(a)) == _hnf(b, len(b))
        assert lattice_equal(a, b) == want, (a, b)
        verdicts.append(want)
    # both answers are common, the equal lattices from column operations
    assert verdicts.count(True) > 200 and verdicts.count(False) > 100
