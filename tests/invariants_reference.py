"""The Q invariants of ``wittkit.invariants`` as they were computed from
the whole determinant and the pairwise Hasse product.

This is the reference ``witt_class`` over Q is tested against
(``test_invariants.py``): the raw Hasse symbol as prod_{i<j} (a_i, a_j)_p
over every pair, the floor(n/2) stripping factors one by one, and the
discriminant as the squarefree part of the factored determinant.

``milnor_equiv`` decides Witt equivalence over Q with no Hilbert symbol.
Milnor's exact sequence 0 -> W(Z) -> W(Q) -> sum_p W(F_p) -> 0
(Milnor-Husemoller, *Symmetric Bilinear Forms*, ch. IV), with W(Z) = Z by
the signature, makes the signature and the second residues at every prime
a complete invariant.  The residue of a diagonal form at p is the sum of
<u mod p> over its entries p^v u with v odd; it is zero in W(F_p) when
their number is even and, for odd p, (-1)^(number/2) times their product
is a square mod p.  W(F_2) = Z/2, so at 2 the number alone counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from wittkit.intlinalg import prime_factors, square_part
from wittkit.invariants import WittClass, hilbert_symbol
from wittkit.rings import RingSpec


def places_of(entries: Sequence[Fraction]) -> set[int]:
    """2 and every prime of a numerator or denominator."""
    places = {2}
    for e in entries:
        places.update(prime_factors(e.numerator))
        places.update(prime_factors(e.denominator))
    return places


def stripped_hasse(entries: Sequence[Fraction], places: set[int]) -> tuple[tuple[int, int], ...]:
    """n(n-1)/2 + floor(n/2) symbols per place: every pair, then one
    (-det, -1)_p per stripped plane with the sign of det flipping."""
    det = Fraction(1)
    for e in entries:
        det *= e
    minus = []
    for p in sorted(places):
        c = 1
        for i, a in enumerate(entries):
            for b in entries[i + 1 :]:
                c *= hilbert_symbol(a, b, p)
        for j in range(len(entries) // 2):
            c *= hilbert_symbol(det if j % 2 else -det, -1, p)
        if c < 0:
            minus.append((p, -1))
    return tuple(minus)


def signed_disc(entries: Sequence[Fraction]) -> int:
    """(-1)^(n(n-1)/2) det, as the squarefree integer of its square class,
    by factoring the determinant."""
    n = len(entries)
    det = Fraction(-1 if (n * (n - 1) // 2) % 2 else 1)
    for e in entries:
        det *= e
    m = det.numerator * det.denominator
    return m // square_part(m) ** 2


def witt_class_q(
    entries: Sequence[int | Fraction], places: set[int] | None = None, disc: int | None = None
) -> WittClass:
    """The class of <entries> over Q.  ``places`` and ``disc`` may be given
    when the caller knows the factorization, for entries too large to
    factor here."""
    entries = [Fraction(e) for e in entries]
    return WittClass(
        RingSpec.rationals(),
        dim_mod2=len(entries) % 2,
        signature=sum(1 if e > 0 else -1 for e in entries),
        disc=signed_disc(entries) if disc is None else disc,
        hasse=stripped_hasse(entries, places_of(entries) if places is None else places),
    )


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
    for p in places_of(diff):
        units = [u for v, u in (_split_at(e, p) for e in diff) if v % 2]
        if len(units) % 2:
            return False
        disc = (-1) ** (len(units) // 2) * math.prod(units)
        if p > 2 and pow(disc, (p - 1) // 2, p) != 1:
            return False
    return True
