"""Integer factoring: trial division below a bound, Pollard-Brent rho above it."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from wittkit import intlinalg
from wittkit.errors import BudgetExceeded
from wittkit.intlinalg import _factorization, int_det, prime_factors, square_part
from wittkit.rings import _is_odd_prime


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
