"""The Hermite normal form of ``intlinalg`` and the ``lattice_equal`` built on it.

``hermite_form`` is checked entry for entry against sympy's
``hermite_normal_form``, and ``lattice_equal`` against the Smith-form
comparison it replaced (``intlinalg_reference.lattice_equal``) and against
sympy's forms; the sympy checks are skipped where sympy is not installed.

sympy 1.14's ``hermite_normal_form`` of a matrix is a column form with its
zero columns dropped: the columns are a basis of the lattice the input's
columns span, upper triangular from the last row up.  With the coordinates
and the basis vectors both taken in reverse order it is ``hermite_form`` of
the input's columns, so forms of matrices with different column counts
compare directly.
"""

from __future__ import annotations

import math
import random

import pytest

import intlinalg_reference as ref
from wittkit.intlinalg import hermite_form, lattice_equal, matmul_int
from wittkit.stabilization import FgAbGroup, GroupHom, _image_lattice, _kernel_lattice, exactness_check


def _sympy():
    sympy = pytest.importorskip("sympy")
    return sympy, pytest.importorskip("sympy.matrices.normalforms").hermite_normal_form


def _hnf(a: list[list[int]], nrows: int):
    sympy, hermite_normal_form = _sympy()
    ncols = len(a[0]) if a else 0
    return hermite_normal_form(sympy.Matrix(nrows, ncols, [x for row in a for x in row]))


def _sympy_rows(vectors: list[list[int]], n: int) -> list[list[int]]:
    """sympy's form of the lattice the vectors span in Z^n, coordinates and
    basis vectors reversed: the orientation of ``hermite_form``."""
    flipped = [[v[n - 1 - i] for v in vectors] for i in range(n)]
    h = _hnf(flipped, n)
    return [[int(h[n - 1 - i, j]) for i in range(n)] for j in reversed(range(h.shape[1]))]


def _generators(rng: random.Random) -> tuple[list[list[int]], int]:
    """k vectors in Z^n of rank at most r, some of them zero and some
    coordinates zero in all of them."""
    n, k = rng.randint(0, 6), rng.randint(0, 7)
    r = rng.randint(0, min(n, k))
    left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(k)]
    right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
    vectors = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(n)] for row in left]
    for v in vectors:
        if rng.random() < 0.15:
            v[:] = [0] * n
    for j in range(n):
        if rng.random() < 0.15:
            for v in vectors:
                v[j] = 0
    return vectors, n


def _rank(vectors: list[list[int]]) -> int:
    """Rank over Q, by fraction-free elimination."""
    rows, rank = [v[:] for v in vectors if any(v)], 0
    while rows:
        top = rows.pop()
        c = next((j for j, x in enumerate(top) if x), None)
        if c is None:
            continue
        rank += 1
        rows = [[top[c] * x - v[c] * y for x, y in zip(v, top)] for v in rows]
    return rank


def _is_hermite(h: list[list[int]]) -> bool:
    lead = [next(j for j, x in enumerate(row) if x) for row in h]
    return lead == sorted(set(lead)) and all(
        h[i][c] > 0 and all(0 <= h[r][c] < h[i][c] for r in range(i)) for i, c in enumerate(lead)
    )


def test_hermite_form_on_corner_shapes():
    assert hermite_form([], 0) == [] and hermite_form([[]], 0) == []
    assert hermite_form([], 3) == [] and hermite_form([[0, 0, 0]], 3) == []
    assert hermite_form([[0, -2, 4], [0, 3, -1]], 3) == [[0, 1, 3], [0, 0, 10]]
    assert hermite_form([[6, 4], [9, 6]], 2) == [[3, 2]]  # rank 1
    assert hermite_form([[-1, 5]], 2) == [[1, -5]]  # no entry above the leading -1 to reduce


def test_hermite_form_is_a_basis_in_echelon_form():
    # no sympy needed: the shape, the rank and the lattice (by the Smith-form oracle)
    rng = random.Random(73)
    for _ in range(400):
        vectors, n = _generators(rng)
        h = hermite_form(vectors, n)
        assert _is_hermite(h) and len(h) == _rank(vectors), (vectors, h)
        assert ref.lattice_equal([list(c) for c in zip(*vectors)] or [[] for _ in range(n)],
                                 [list(c) for c in zip(*h)] or [[] for _ in range(n)])
        assert hermite_form(h, n) == h


def test_hermite_form_equals_sympys():
    _sympy()
    rng = random.Random(79)
    seen = {"zero vector": 0, "zero coordinate": 0, "rank-deficient": 0, "empty": 0}
    for _ in range(400):
        vectors, n = _generators(rng)
        assert hermite_form(vectors, n) == _sympy_rows(vectors, n), vectors
        seen["zero vector"] += any(not any(v) for v in vectors)
        seen["zero coordinate"] += any(not any(v[j] for v in vectors) for j in range(n))
        seen["rank-deficient"] += _rank(vectors) < min(n, len(vectors))
        seen["empty"] += not n or not vectors
    assert min(seen.values()) >= 20, seen


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
    _sympy()
    rng = random.Random(71)
    verdicts = []
    for _ in range(600):
        a, b = _random_pair(rng)
        want = _hnf(a, len(a)) == _hnf(b, len(b))
        assert lattice_equal(a, b) == want, (a, b)
        verdicts.append(want)
    # both answers are common, the equal lattices from column operations
    assert verdicts.count(True) > 200 and verdicts.count(False) > 100


def test_lattice_equal_agrees_with_the_smith_form_oracle():
    rng = random.Random(83)
    verdicts = []
    for _ in range(1000):
        a, b = _random_pair(rng)
        want = ref.lattice_equal(a, b)
        assert lattice_equal(a, b) == want, (a, b)
        verdicts.append(want)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 200


def _unimodular(n: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """(u, u^-1) from n shears by +-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    ui = [row[:] for row in u]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in u:  # u (I + c E_ij), then (I - c E_ij) u^-1
            row[j] += c * row[i]
        ui[i] = [x - c * y for x, y in zip(ui[i], ui[j])]
    return u, ui


def _planted_chain(rng: random.Random, nmaps: int, planted: bool) -> tuple[list[GroupHom], list[int]]:
    """A chain of free groups, exact by construction (each map carries a
    complement onto the next kernel) and moved by unimodular changes of
    basis; a planted break scales one column of one map by 0, 2 or 3.
    Returns the chain and the nodes where it is not exact."""
    k = [rng.randint(0, 1)] + [rng.randint(1, 2) for _ in range(nmaps)]
    dims = [k[i] + k[i + 1] for i in range(nmaps)] + [k[nmaps] + rng.randint(0, 1)]
    maps = []
    for i in range(nmaps):
        w, _ = _unimodular(k[i + 1], rng)
        m = [[0] * dims[i] for _ in range(dims[i + 1])]
        for a in range(k[i + 1]):
            m[a][k[i]:] = w[a]
        maps.append(m)
    failures = []
    if planted:
        t = rng.randint(1, nmaps - 1)
        scale = rng.choice((0, 2, 3))
        col = k[t - 1] + rng.randrange(k[t])
        for row in maps[t - 1]:
            row[col] *= scale
        # a zero column also enlarges the kernel at t - 1
        failures = [t - 1, t] if scale == 0 and t > 1 else [t]
    bases = [_unimodular(d, rng) for d in dims]
    groups = [FgAbGroup(d) for d in dims]
    chain = [
        GroupHom(groups[i], groups[i + 1], tuple(map(tuple, matmul_int(bases[i + 1][0], matmul_int(m, bases[i][1])))))
        for i, m in enumerate(maps)
    ]
    return chain, failures


def _torsion_hom(src: FgAbGroup, tgt: FgAbGroup, rng: random.Random) -> GroupHom:
    rows = []
    for e in tgt.orders:
        row = []
        for d in src.orders:
            if d and not e:
                row.append(0)
            elif d:  # a multiple of e / gcd(d, e) respects the order-d relation
                row.append(e // math.gcd(d, e) * rng.randrange(e))
            else:
                row.append(rng.randint(-3, 3))
        rows.append(tuple(row))
    return GroupHom(src, tgt, tuple(rows))


def test_lattice_equal_agrees_with_the_oracle_on_chain_lattices():
    rng = random.Random(89)
    verdicts = []
    for nmaps in range(3, 7):
        for i in range(24):
            chain, failures = _planted_chain(rng, nmaps, planted=i % 2 == 1)
            assert exactness_check(chain) == failures
            for j in range(1, nmaps):
                image, kernel = _image_lattice(chain[j - 1]), _kernel_lattice(chain[j])
                verdicts.append(lattice_equal(image, kernel))
                assert verdicts[-1] == ref.lattice_equal(image, kernel) == (j not in failures)
    # groups with torsion: the relation columns enter both lattices
    for _ in range(150):
        a, b, c = (FgAbGroup.of(rng.randint(0, 2), [rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(0, 2))])
                   for _ in range(3))
        first, second = _torsion_hom(a, b, rng), _torsion_hom(b, c, rng)
        image, kernel = _image_lattice(first), _kernel_lattice(second)
        verdicts.append(lattice_equal(image, kernel))
        assert verdicts[-1] == ref.lattice_equal(image, kernel)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100
