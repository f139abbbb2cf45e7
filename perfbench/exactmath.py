"""The benchmark's own exact arithmetic.

The oracles check wittkit's answers with this module and never with
wittkit's arithmetic, so a defect in a wittkit kernel cannot hide itself.
Scalars are ``int`` (reduced mod p where a prime is given) or
``fractions.Fraction``; matrices are lists of rows.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# -- scalar number theory -----------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (inputs here are small)."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree(n: int) -> int:
    """The squarefree integer in the square class of the nonzero integer n."""
    out = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def legendre(u: int, p: int) -> int:
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def least_nonresidue(p: int) -> int:
    return next(q for q in range(2, p) if legendre(q, p) == -1)


def hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p of nonzero integers at the prime p."""
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, v = 0, b
    while v % p == 0:
        v //= p
        beta += 1
    if p == 2:
        e = ((u - 1) // 2) * ((v - 1) // 2) + alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    s = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
    if beta % 2:
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(v, p)
    return s


def invariant_factors(orders: list[int]) -> list[int]:
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups."""
    per_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in factorize(n).items():
            per_prime.setdefault(p, []).append(p**e)
    length = max((len(v) for v in per_prime.values()), default=0)
    out = [1] * length
    for powers in per_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            out[length - 1 - i] *= q
    return [d for d in out if d > 1]


# -- Witt invariants of diagonal forms -----------------------------------------
#
# Each returns the JSON shape ``WittClass.to_json`` promises.  The Hasse
# entry is the symbol of the form with its hyperbolic planes formally
# stripped: removing a plane H from g multiplies c_p by (-det g, -1)_p and
# negates det g.


def witt_invariants_fp(diag: list[int], p: int) -> dict:
    n = len(diag)
    det = 1
    for a in diag:
        det = det * a % p
    if (n * (n - 1) // 2) % 2:
        det = -det % p
    return {"dim_mod2": n % 2, "disc": 1 if legendre(det, p) == 1 else least_nonresidue(p)}


def witt_invariants_q(diag: list[int]) -> dict:
    """Invariants of a diagonal form over Q with nonzero integer entries."""
    n = len(diag)
    det = math.prod(diag)
    places = {2}
    for a in diag:
        places.update(factorize(a))
    hasse = {}
    for p in sorted(places):
        c = 1
        for i in range(n):
            for j in range(i + 1, n):
                c *= hilbert(diag[i], diag[j], p)
        d = det
        for _ in range(n // 2):
            c *= hilbert(-d, -1, p)
            d = -d
        if c < 0:
            hasse[str(p)] = -1
    signed = -det if (n * (n - 1) // 2) % 2 else det
    return {
        "dim_mod2": n % 2,
        "signature": sum(1 if a > 0 else -1 for a in diag),
        "disc": squarefree(signed),
        "hasse": hasse,
    }


def witt_invariants_dyadic(diag: list[int]) -> dict:
    """Invariants over Z[1/2] of a diagonal form with entries +-2^k."""
    parity = 0
    for a in diag:
        k = abs(a).bit_length() - 1
        assert abs(a) == 1 << k, "dyadic units are +-2^k"
        parity ^= k & 1
    return {"signature": sum(1 if a > 0 else -1 for a in diag), "parity": parity}


# -- matrices over Q or F_p ----------------------------------------------------


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a: list[list]) -> list[list]:
    return [list(r) for r in zip(*a)]


def matmul(a: list[list], b: list[list], p: int | None = None) -> list[list]:
    bt = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def block_diag(blocks: list[list[list]]) -> list[list]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def det(a: list[list], p: int | None = None):
    """Determinant by Gaussian elimination over Q, or over F_p when p is given."""
    n = len(a)
    m = [[Fraction(x) if p is None else x % p for x in row] for row in a]
    out = Fraction(1) if p is None else 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        d = m[c][c]
        out *= d
        inv = 1 / d if p is None else pow(d, -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
                if p is not None:
                    m[r] = [x % p for x in m[r]]
    return out if p is None else out % p


def hyperbolic_gram(h: int, eps: int) -> list[list[int]]:
    """h standard planes [[0, 1], [eps, 0]], the block shape witt_decompose uses."""
    return block_diag([[[0, 1], [eps, 0]] for _ in range(h)]) if h else []


def random_unimodular(n: int, rng: random.Random, shears: int,
                      steps: tuple = (-2, -1, 1, 2)) -> tuple[list[list[int]], list[list[int]]]:
    """A random integer matrix of determinant +-1 together with its inverse:
    ``shears`` column operations by a multiplier from ``steps``, then signs."""
    u, ui = identity(n), identity(n)
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(steps)
        for row in u:  # column j += c * column i
            row[j] += c * row[i]
        ui[i] = [x - c * y for x, y in zip(ui[i], ui[j])]  # row i -= c * row j
    for i in range(n):
        if rng.random() < 0.5:
            for row in u:
                row[i] = -row[i]
            ui[i] = [-x for x in ui[i]]
    return u, ui


# -- truncated polynomial matrices over B[x]/(x^k) -----------------------------
#
# An entry is a tuple of k coefficients over B = Q or F_p, constant term
# first, exactly the payload wittkit stores, so results are read straight
# from ``InvMatrix.cells`` without wittkit doing any arithmetic.


def tp_mul(a: list, b: list, k: int, p: int | None) -> list:
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = [0] * k
            for x, y in zip(row, col):
                for i, xi in enumerate(x):
                    if xi:
                        for j in range(k - i):
                            if y[j]:
                                acc[i + j] += xi * y[j]
            orow.append(tuple(c % p if p is not None else Fraction(c) for c in acc))
        out.append(orow)
    return out


def tp_identity(n: int, k: int, p: int | None) -> list:
    one = (1,) + (0,) * (k - 1)
    zero = (0,) * k
    if p is None:
        one = tuple(Fraction(c) for c in one)
        zero = tuple(Fraction(c) for c in zero)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def tp_equal(a: list, b: list) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def constant_terms(a: list) -> list[list]:
    return [[e[0] for e in row] for row in a]


# -- Laurent polynomials in t, z over Q -----------------------------------------


def lp(terms: dict) -> dict:
    return {k: Fraction(v) for k, v in terms.items() if v}


def lp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def lp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def lp_scale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items() if v * c}


def lp_json(a: dict) -> list:
    return [[list(k), [v.numerator, v.denominator]] for k, v in sorted(a.items())]
