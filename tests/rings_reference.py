"""How ``wittkit.rings`` turned a Fraction into a payload before
``canon_payload`` was the one normalizer: ``_from_fraction``, with the
``_is_dyadic`` and ``_zero`` it called, one branch per ring kind.

``canon_payload`` is tested against it on Fractions (``test_rings.py``):
the same payload, or an exception of the same type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from wittkit.errors import IllFormed, NonUnit
from wittkit.rings import DYADIC, LAURENT2, PRIME_FIELD, RATIONALS, RingSpec


def _is_dyadic(q: Fraction) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


def _zero(spec: RingSpec) -> Any:
    if spec.kind == PRIME_FIELD:
        return 0
    if spec.kind in (RATIONALS, DYADIC):
        return Fraction(0)
    if spec.kind == LAURENT2:
        return ()
    assert spec.base is not None and spec.k is not None
    return (_zero(spec.base),) * spec.k


def _from_fraction(spec: RingSpec, q: Fraction) -> Any:
    if spec.kind == PRIME_FIELD:
        p = spec.p
        assert p is not None
        if q.denominator % p == 0:
            raise NonUnit(f"denominator of {q} vanishes mod {p}")
        return q.numerator * pow(q.denominator, p - 2, p) % p
    if spec.kind == RATIONALS:
        return q
    if spec.kind == DYADIC:
        if not _is_dyadic(q):
            raise IllFormed(f"{q} is not a dyadic rational")
        return q
    if spec.kind == LAURENT2:
        if not _is_dyadic(q):
            raise IllFormed(f"{q} is not a dyadic rational")
        return (((0, 0), q),) if q else ()
    base = spec.base
    k = spec.k
    assert base is not None and k is not None
    return (_from_fraction(base, q),) + (_zero(base),) * (k - 1)
