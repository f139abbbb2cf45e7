"""The Q invariants of ``wittkit.invariants`` as they were computed from
the whole determinant and the pairwise Hasse product.

This is the reference ``witt_class`` over Q is tested against
(``test_invariants.py``): the raw Hasse symbol as prod_{i<j} (a_i, a_j)_p
over every pair, the floor(n/2) stripping factors one by one, and the
discriminant as the squarefree part of the factored determinant.
Equivalence by Milnor's residues, with no Hilbert symbol, is
``witt_oracle.milnor_equiv``.
"""

from __future__ import annotations

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
