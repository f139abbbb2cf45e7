"""Integer factoring, determinants, and solving for a matrix of right-hand sides."""

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
    int_det,
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


# -- Smith forms counted per caller ---------------------------------------


def _counted_smith_forms(monkeypatch) -> list:
    calls = []
    real = intlinalg.smith_normal_form

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (intlinalg, stabilization):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    return calls


def test_lattice_equal_makes_no_smith_form(monkeypatch):
    calls = _counted_smith_forms(monkeypatch)
    a = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
    # the same lattice: three columns from a unimodular change of basis and
    # two redundant ones
    b = _product(a, [[1, 0, 1, 2, 0], [1, 1, 0, 1, 0], [0, 0, 1, 0, 0]], 5)
    assert lattice_equal(a, b)
    # a doubled lies in a's lattice but not the other way round
    assert not lattice_equal([[2 * x for x in row] for row in a], a)
    assert calls == []
    # the kernels of exactness_check still take theirs, the comparisons none
    z = FgAbGroup(1)
    chain = [GroupHom.zero(FgAbGroup(0), z), GroupHom(z, z, ((2,),)), GroupHom(z, FgAbGroup(0, (2,)), ((1,),))]
    assert stabilization.exactness_check(chain) == [] and len(calls) == 2


@pytest.mark.parametrize(
    "mat, result",
    [
        (((2, 1, 0), (0, 3, 1), (1, 0, 5)), ColimResult(3, (31,), ())),
        (((1, 1, 0), (1, 1, 0), (0, 0, 3)), ColimResult(2, (2, 3), ())),
    ],
)
def test_free_colimit_makes_one_smith_form_for_the_power_and_one_for_the_basis(monkeypatch, mat, result):
    calls = _counted_smith_forms(monkeypatch)
    z3 = FgAbGroup(3)
    assert colimit(GroupSeq((), GroupHom(z3, z3, mat))) == result
    assert len(calls) == 2
