"""What makes a diagonalization or a Witt decomposition right, on plain lists.

Nothing here comes from ``wittkit``: a matrix is the grid of its public
``.cells``, ``Fraction``s over Q and Z[1/2] and ints mod ``mod`` over
F_p, and every check is worked out from the definitions, so a bug in the
package cannot reach both sides of a comparison.  ``test_source_rules.py``
keeps this module on the standard library.

``milnor_equiv`` decides Witt equivalence over Q with no Hilbert symbol.
Milnor's exact sequence 0 -> W(Z) -> W(Q) -> sum_p W(F_p) -> 0
(Milnor-Husemoller, *Symmetric Bilinear Forms*, ch. IV), with W(Z) = Z by
the signature, makes the signature and the second residues at every prime
a complete invariant.  The residue of a diagonal form at p is the sum of
<u mod p> over its entries p^v u with v odd; it is zero in W(F_p) when
their number is even and, for odd p, (-1)^(number/2) times their product
is a square mod p.  W(F_2) = Z/2, so at 2 the number alone counts.
W(Z[1/2]) embeds in W(Q), so it decides dyadic classes too.  Over F_p
the dimension mod 2 and the square class of the signed discriminant
(-1)^(n(n-1)/2) det decide the class (``fp_class``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence


def _mul(a: Sequence[Sequence], b: Sequence[Sequence], mod: int | None) -> list[list]:
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[v % mod for v in row] for row in out] if mod else out


def congruent(x: Sequence[Sequence], g: Sequence[Sequence], t: Sequence[Sequence], mod: int | None) -> bool:
    """Whether X^T G X = T (mod ``mod``, if given)."""
    return _mul(_mul(list(zip(*x)), g, mod), x, mod) == [[v % mod if mod else v for v in row] for row in t]


def _two_power(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def in_ring(cells: Sequence[Sequence], dyadic: bool) -> bool:
    """Whether every entry lies in Z[1/2], when ``dyadic``."""
    return not dyadic or all(_two_power(Fraction(c).denominator) for row in cells for c in row)


def unit_diagonal(cells: Sequence[Sequence], mod: int | None, dyadic: bool) -> list:
    """The diagonal of a diagonal grid whose entries are units (nonzero,
    +-2^k over Z[1/2]); else AssertionError."""
    n = len(cells)
    assert all(cells[i][j] == 0 for i in range(n) for j in range(n) if i != j), cells
    diag = [cells[i][i] for i in range(n)]
    assert all(d % mod if mod else d for d in diag), diag
    assert not dyadic or all(_two_power(abs(Fraction(d).numerator)) for d in diag), diag
    return diag


def split_grid(h: int, eps: int, block: Sequence) -> list[list]:
    """H^h + diag(block): h standard planes [[0, 1], [eps, 0]], then block."""
    n = 2 * h + len(block)
    grid = [[0] * n for _ in range(n)]
    for k in range(h):
        grid[2 * k][2 * k + 1], grid[2 * k + 1][2 * k] = 1, eps
    for k, c in enumerate(block, 2 * h):
        grid[k][k] = c
    return grid


def fp_class(diag: Sequence[int], p: int) -> tuple[int, int]:
    """(dim mod 2, Legendre symbol of the signed discriminant) of <diag> over F_p."""
    n = len(diag)
    disc = (-1) ** (n * (n - 1) // 2) * math.prod(diag)
    return n % 2, pow(disc, (p - 1) // 2, p)


def isotropic(cells: Sequence[Sequence[int]], p: int) -> bool:
    """Whether some nonzero v over F_p has v^T G v = 0, by trying all p^n."""
    n = len(cells)
    return any(sum(v[i] * cells[i][j] * v[j] for i in range(n) for j in range(n)) % p == 0
               for v in itertools.product(range(p), repeat=n) if any(v))


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases, exact for n below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> set[int]:
    """The primes dividing n != 0: trial division to 1000, then Pollard's rho."""
    n, out = abs(n), set()
    for q in range(2, 1000):
        while n % q == 0:
            n //= q
            out.add(q)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out.add(m)
            continue
        for c in itertools.count(1):
            x = y = 2
            d = 1
            while d == 1:
                x, y = (x * x + c) % m, ((y * y + c) ** 2 + c) % m
                d = math.gcd(x - y, m)
            if d != m:
                stack += [d, m // d]
                break
    return out


def _split_at(x: Fraction, p: int) -> tuple[int, int]:
    """(v, u mod p) with x = p^v u and u a p-adic unit."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v, num * pow(den, -1, p) % p


def milnor_equiv(d1: Sequence[int | Fraction], d2: Sequence[int | Fraction]) -> bool:
    """Whether <d1> and <d2> are Witt equivalent over Q: <d1> - <d2> has
    signature 0 and a zero residue at every prime."""
    diff = [Fraction(e) for e in d1] + [-Fraction(e) for e in d2]
    if sum(1 if e > 0 else -1 for e in diff):
        return False
    places = {2}.union(*(prime_factors(e.numerator * e.denominator) for e in diff))
    for p in places:
        units = [u for v, u in (_split_at(e, p) for e in diff) if v % 2]
        if len(units) % 2:
            return False
        disc = (-1) ** (len(units) // 2) * math.prod(units)
        if p > 2 and pow(disc, (p - 1) // 2, p) != 1:
            return False
    return True
