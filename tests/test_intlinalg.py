"""Integer factoring, determinants, and the readers of one Hermite form:
the unimodular inverse, solving for a matrix of right-hand sides, and
kernel bases, each checked against the algorithm it replaced."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

import intlinalg_reference as ref
from wittkit import intlinalg, stabilization
from wittkit.errors import BudgetExceeded
from wittkit.intlinalg import (
    _factorization,
    columns_to_matrix,
    hermite_form,
    identity_int,
    int_det,
    int_inverse_unimodular,
    kernel_basis_int,
    lattice_equal,
    matmul_int,
    prime_factors,
    solve_int,
    square_part,
)
from wittkit.rings import _is_odd_prime
from wittkit.stabilization import ColimResult, FgAbGroup, GroupHom, GroupSeq, colimit


def _factor_by_trial_division(n: int) -> dict[int, int]:
    m, out, d = abs(n), {}, 2
    while m > 1 and d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _check(n: int, want: dict[int, int]) -> None:
    assert _factorization(n) == want
    assert prime_factors(n) == sorted(want)
    assert square_part(n) == math.prod(p ** (e // 2) for p, e in want.items())


def test_factoring_matches_trial_division():
    for n in range(-20, 10**5):
        assert _factorization(n) == (_factor_by_trial_division(n) if n else {})
    for n in (0, 1, -1, 2, -72, 1024, 1023**2, 99991):
        _check(n, _factor_by_trial_division(n) if n else {})


def test_factoring_beyond_the_trial_bound():
    # known factorizations whose primes lie above the trial-division bound,
    # with repeated factors and a small cofactor
    rng = random.Random(31)
    big = [p for p in range(intlinalg._TRIAL_BOUND, 3 * 10**6, 9973) if _is_odd_prime(p)]
    big += [1000003, 1000033, 2**31 - 1]
    for _ in range(30):
        want: dict[int, int] = {}
        for p in rng.sample(big, rng.randrange(1, 4)):
            want[p] = rng.randrange(1, 4)
        small = rng.choice((1, 2, 12, 7**3, 1021))
        for p, e in _factor_by_trial_division(small).items():
            want[p] = want.get(p, 0) + e
        n = math.prod(p**e for p, e in want.items())
        _check(rng.choice((1, -1)) * n, want)


def test_product_of_two_32_bit_primes_splits_fast():
    p, q = 4294967291, 4294967279  # the two largest primes below 2^32
    start = time.perf_counter()
    assert prime_factors(p * q) == [q, p]
    assert square_part(p * p * q) == p
    assert time.perf_counter() - start < 0.5


def test_factoring_stops_at_its_work_limit(monkeypatch):
    monkeypatch.setattr(intlinalg, "_RHO_STEPS", 64)
    with pytest.raises(BudgetExceeded):
        square_part(1000003 * 1000033)
    # a prime beyond the exact range of the primality test never splits
    with pytest.raises(BudgetExceeded):
        prime_factors(2**89 - 1)


def test_factoring_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for bits in (20, 40, 64):
        for _ in range(20):
            n = rng.getrandbits(bits) + 1
            assert _factorization(n) == sympy.factorint(n)


# -- determinants -----------------------------------------------------------------


def _leibniz_det(a: list[list[int]]) -> int:
    """Sum over permutations, signed by their inversion count."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


# upper triangular with a 100-digit diagonal: det 10^240, out of Leibniz's reach
_BIG_UPPER = [[10**30 * (i == j) + (j > i) for j in range(8)] for i in range(8)]


def _det_cases() -> list[list[list[int]]]:
    rng = random.Random(53)
    cases = [[], [[0]], [[-7]], [[3, 5], [0, 0]], [[0, 2], [0, 3]]]
    for n in range(1, 7):
        dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        upper = [[v if j >= i else 0 for j, v in enumerate(row)] for i, row in enumerate(dense)]
        lower = [[v if j <= i else 0 for j, v in enumerate(row)] for i, row in enumerate(dense)]
        diagonal = [[v if j == i else 0 for j, v in enumerate(row)] for i, row in enumerate(dense)]
        pivot_zero = [row[:] for row in dense]
        pivot_zero[0][0] = 0  # Bareiss swaps in a lower row
        cases += [dense, upper, lower, diagonal, pivot_zero]
    return cases + [_BIG_UPPER]


def test_int_det_matches_leibniz():
    # upper-triangular and diagonal grids (zero pivots included) take the
    # product of the diagonal; lower-triangular and dense ones take Bareiss
    for a in _det_cases():
        if len(a) <= 6:
            assert int_det(a) == _leibniz_det(a), a
    assert int_det(_BIG_UPPER) == 10**240


def test_int_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    for a in _det_cases():
        want = sympy.Matrix(a).det() if a else 1
        assert int_det(a) == want, a


# -- solving for a matrix of right-hand sides ----------------------------------


def _check_solution(a: list[list[int]], b: list[list[int]]) -> bool:
    """Whether ``solve_int(a, b)`` found X; when it did, a*X = b exactly."""
    x = solve_int(a, b)
    if x is None:
        return False
    n = len(a[0]) if a else 0
    if n == 0:
        # the 0 x k matrix has no rows to carry k: matmul_int cannot rebuild b
        assert x == [] and not any(map(any, b))
    else:
        assert len(x) == n and all(len(row) == len(b[0]) for row in x)
        assert matmul_int(a, x) == b
    return True


def test_solve_int_on_corner_shapes():
    assert _check_solution([], [])  # no rows
    no_cols = [[], []]
    assert _check_solution(no_cols, [[0, 0], [0, 0]])
    assert _check_solution(no_cols, [[], []])
    assert solve_int(no_cols, [[0], [1]]) is None
    deficient = [[1, 2], [2, 4]]
    assert _check_solution(deficient, [[3, -1], [6, -2]])
    assert solve_int(deficient, [[3, 1], [6, 1]]) is None  # the second column leaves the image
    assert solve_int(deficient, [[], []]) == [[], []]  # no right-hand sides
    assert solve_int([[2, 0], [0, 3]], [[2, 4], [3, 9]]) == [[1, 2], [1, 3]]
    assert solve_int([[2, 0], [0, 3]], [[2, 1], [3, 0]]) is None  # 2 does not divide 1
    assert solve_int([[1], [2], [3]], [[2], [4], [6]]) == [[2]]
    assert solve_int([[1], [2], [3]], [[2], [4], [7]]) is None
    with pytest.raises(ValueError):
        solve_int([[1, 0]], [[1], [0]])


def _product(x: list[list[int]], y: list[list[int]], ncols: int) -> list[list[int]]:
    """x*y with the column count given, so that an inner dimension 0 keeps it."""
    return [[sum(r[t] * y[t][j] for t in range(len(r))) for j in range(ncols)] for r in x]


def test_solve_int_matches_the_vector_form_column_by_column():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def grid(data, rows, cols, bound):
        return [[data.draw(st.integers(-bound, bound)) for _ in range(cols)] for _ in range(rows)]

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))
        rank = data.draw(st.integers(0, min(m, n)))  # a has rank at most this
        a = _product(grid(data, m, rank, 4), grid(data, rank, n, 4), n)
        if data.draw(st.booleans()):
            b = grid(data, m, k, 6)
        else:  # solvable, unless one entry is then moved
            b = _product(a, grid(data, n, k, 3), k)
            if m and k and data.draw(st.booleans()):
                b[data.draw(st.integers(0, m - 1))][data.draw(st.integers(0, k - 1))] += 1
        columns = [list(col) for col in zip(*b)]
        assert _check_solution(a, b) == all(ref.solve_int(a, col) is not None for col in columns)

    check()


# -- the unimodular inverse and kernel bases -----------------------------------


def _sheared(n: int, rng: random.Random, bits: int) -> list[list[int]]:
    """A product of 3n shears with multipliers of up to ``bits`` bits, rows
    swapped and one negated: determinant +-1, entries of up to about
    3 * ``bits`` bits."""
    u = identity_int(n)
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1)) * rng.getrandbits(bits)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    u[0] = [-x for x in u[0]]
    return u


def test_int_inverse_unimodular_matches_the_euclid_oracle():
    rng = random.Random(89)
    assert int_inverse_unimodular([]) == []
    wide = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        u = _sheared(n, rng, rng.choice((4, 24, 40)))
        wide += max(abs(x).bit_length() for row in u for x in row) >= 40
        inv = int_inverse_unimodular(u)
        assert inv == ref.int_inverse_unimodular(u)
        assert matmul_int(u, inv) == identity_int(n) == matmul_int(inv, u)
    assert wide >= 30  # of 60, with entries of 40 bits and more


def test_int_inverse_unimodular_refuses_singular_and_non_unimodular_matrices():
    rng = random.Random(97)
    cases = [[[0]], [[2]], [[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 1], [1, -1]]]
    for _ in range(40):
        n = rng.randint(2, 5)
        u = _sheared(n, rng, 20)
        if rng.random() < 0.5:  # one row doubled: determinant +-2
            i = rng.randrange(n)
            u[i] = [2 * x for x in u[i]]
        else:  # one row a combination of two others: singular
            i, j, k = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
            u[i] = [3 * x - y for x, y in zip(u[j], u[k])]
        cases.append(u)
    for a in cases:
        assert abs(int_det(a)) != 1
        with pytest.raises(ValueError):
            int_inverse_unimodular(a)
        with pytest.raises(ValueError):
            ref.int_inverse_unimodular(a)
    # no inverse unless square: the Euclid oracle answered [[0, 1, 0], [0, 0, 1]] for the first
    for a in ([[1, 0, 0], [0, 1, 0]], [[1], [0]]):
        with pytest.raises(ValueError, match="square"):
            int_inverse_unimodular(a)


def _deficient(m: int, n: int, rank: int, rng: random.Random) -> list[list[int]]:
    """An m x n integer matrix of rank at most ``rank``."""
    left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(m)]
    right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
    return _product(left, right, n)


def test_kernel_basis_int_spans_the_oracles_lattice():
    rng = random.Random(101)
    assert kernel_basis_int([], 3) == identity_int(3)  # no rows: all of Z^3
    assert kernel_basis_int([[], []], 0) == []
    for _ in range(300):
        m, n = rng.randint(0, 4), rng.randint(0, 6)
        a = _deficient(m, n, rng.randint(0, min(m, n)), rng)
        basis = kernel_basis_int(a, n)
        assert all(len(v) == n for v in basis)
        assert all(not any(row) for row in _product(a, columns_to_matrix(basis, n), len(basis)))
        # a basis, not just a spanning set: its Hermite form keeps every vector
        assert len(hermite_form(basis, n)) == len(basis)
        assert hermite_form(basis, n) == hermite_form(ref.kernel_basis_int(a, n), n), a


def test_kernel_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(103)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(0, 6)
        a = _deficient(m, n, rng.randint(0, min(m, n)), rng)
        flat = [x for row in a for x in row]
        assert len(kernel_basis_int(a, n)) == len(sympy.Matrix(m, n, flat).nullspace()), a


def test_solve_int_agrees_with_the_smith_form_oracle():
    rng = random.Random(107)
    outcomes = set()
    for _ in range(400):
        m, n, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 3)
        a = _deficient(m, n, rng.randint(0, min(m, n)), rng)
        b = _product(a, [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], k)
        if k and rng.random() < 0.5:  # one column moved, most often out of the image
            j = rng.randrange(k)
            for row in b:
                row[j] += rng.randint(-2, 2)
        x = solve_int(a, b)
        want = ref.solve_int_by_smith(a, b)
        assert (x is None) == (want is None), (a, b)
        if x is not None:
            assert len(x) == n and all(len(row) == k for row in x)
            assert matmul_int(a, x) == b
        outcomes.add((k == 0, x is None))
    assert outcomes == {(True, False), (False, False), (False, True)}


# -- Smith and Hermite forms counted per caller ---------------------------------


def _counted_smith_forms(monkeypatch) -> list:
    calls = []
    real = intlinalg.smith_normal_form

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (intlinalg, stabilization):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    return calls


def test_lattice_equal_and_exactness_check_make_no_smith_form(monkeypatch):
    calls = _counted_smith_forms(monkeypatch)
    a = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
    # the same lattice: three columns from a unimodular change of basis and
    # two redundant ones
    b = _product(a, [[1, 0, 1, 2, 0], [1, 1, 0, 1, 0], [0, 0, 1, 0, 0]], 5)
    assert lattice_equal(a, b)
    # a doubled lies in a's lattice but not the other way round
    assert not lattice_equal([[2 * x for x in row] for row in a], a)
    assert calls == []
    # the kernels of exactness_check read Hermite forms too
    z = FgAbGroup(1)
    chain = [GroupHom.zero(FgAbGroup(0), z), GroupHom(z, z, ((2,),)), GroupHom(z, FgAbGroup(0, (2,)), ((1,),))]
    assert stabilization.exactness_check(chain) == [] and calls == []


@pytest.mark.parametrize(
    "mat, result",
    [
        (((2, 1, 0), (0, 3, 1), (1, 0, 5)), ColimResult(3, (31,), ())),
        (((1, 1, 0), (1, 1, 0), (0, 0, 3)), ColimResult(2, (2, 3), ())),
    ],
)
def test_free_colimit_makes_no_smith_form(monkeypatch, mat, result):
    # rho and U come off one Hermite form of the rows (row i of F^r, e_i)
    calls = _counted_smith_forms(monkeypatch)
    z3 = FgAbGroup(3)
    assert colimit(GroupSeq((), GroupHom(z3, z3, mat))) == result
    assert calls == []


def test_torsion_colimit_takes_no_kernel_basis_and_one_smith_form(monkeypatch):
    # the Hermite forms of the two lattices and the relations on the first
    # need no kernel; the invariant factors take the one Smith form
    smith_forms, kernels = _counted_smith_forms(monkeypatch), []
    real = intlinalg.kernel_basis_int

    def counted(a, n):
        kernels.append(a)
        return real(a, n)

    for module in (intlinalg, stabilization):
        monkeypatch.setattr(module, "kernel_basis_int", counted)
    g = FgAbGroup(0, (10, 30, 120, 720))
    mat = ((-6, 1, -3, 5), (18, 0, 0, 4), (-48, -4, 2, 5), (432, 96, 30, -1))
    assert colimit(GroupSeq((), GroupHom(g, g, mat))) == ColimResult(0, (), (5, 5, 15, 720))
    assert kernels == [] and len(smith_forms) == 1


@pytest.mark.parametrize(
    "reader, args",
    [
        (int_inverse_unimodular, ([[2, 1], [1, 1]],)),
        (solve_int, ([[1, 2], [2, 4]], [[3, -1], [6, -2]])),
        (kernel_basis_int, ([[1, 2, 3], [2, 4, 6]], 3)),
    ],
)
def test_each_reader_takes_one_hermite_form_and_no_smith_form(monkeypatch, reader, args):
    calls = {"hermite_form": 0, "smith_normal_form": 0}
    for name in calls:
        real = getattr(intlinalg, name)

        def counted(*a, real=real, name=name):
            calls[name] += 1
            return real(*a)

        monkeypatch.setattr(intlinalg, name, counted)
    assert reader(*args)
    assert calls == {"hermite_form": 1, "smith_normal_form": 0}
