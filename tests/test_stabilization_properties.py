"""Torsion colimits from Hermite forms against the former closed form, the
lattice fixpoint and brute force.

``colimit`` reads the torsion part off the Hermite form of
A^M Z^s + D Z^s for M >= log2 |G|; ``stabilization_reference`` keeps the
closed form that read A^M G off an integer kernel and a Smith form, and
the fixpoint that iterates lattice bases until the image stops
shrinking; the brute force iterates sets of elements.  On random
well-defined endomorphisms of Z^r + Z/d_1 + ... + Z/d_s with r <= 2 and
s <= 3 all of them must give the same group.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

import stabilization_reference as ref
from wittkit.stabilization import FgAbGroup, GroupHom, GroupSeq, colimit

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

_FIRST_ORDERS = (2, 3, 4, 5, 6, 8, 9, 10, 12)


@st.composite
def _torsion_maps(draw, max_order=None):
    """A well-defined endomorphism of Z^r + Z/d_1 + ... + Z/d_s, r <= 2 and
    s <= 3, each d_i 1 to 6 times the one before; factors past
    ``max_order`` are dropped.  The free block and the free generators'
    images in the torsion are arbitrary; torsion never maps to free."""
    r = draw(st.integers(0, 2))
    factors = [draw(st.sampled_from(_FIRST_ORDERS))]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(factors[-1] * draw(st.integers(1, 6)))
    while max_order is not None and math.prod(factors) > max_order:
        factors.pop()
    orders = (0,) * r + tuple(factors)

    def entry(d_i: int, d_j: int) -> int:
        if not d_j:  # from a free generator: anything
            return draw(st.integers(-30, 30))
        if not d_i:  # torsion into free: nothing
            return 0
        # into a smaller factor anything goes; into a larger one, a multiple of the ratio
        return draw(st.integers(-6, 6)) * (d_i // d_j if d_i > d_j else 1)

    rows = tuple(tuple(entry(d_i, d_j) for d_j in orders) for d_i in orders)
    group = FgAbGroup(r, tuple(factors))
    return GroupHom(group, group, rows)


@settings(max_examples=300, deadline=None)
@given(_torsion_maps())
def test_torsion_colimit_matches_the_former_closed_form(h):
    assert colimit(GroupSeq((), h)).torsion == ref.closed_form_torsion_colimit(h)


# The fixpoint's coefficients can explode past |G| = 2048: on Z/8+Z/48+Z/96
# with ((-2, 3, 5), (-18, 4, -6), (36, 0, -1)) it takes over a minute, while
# over 160000 random maps of order at most 2048 none took 0.1 s.
@settings(max_examples=300, deadline=None)
@given(_torsion_maps(max_order=2048))
def test_torsion_colimit_matches_the_lattice_fixpoint(h):
    assert colimit(GroupSeq((), h)).torsion == ref._torsion_colimit(h)


def _eventual_image(h: GroupHom) -> set:
    factors, block = h.source.torsion, h.torsion_block()
    image = set(itertools.product(*map(range, factors)))
    while True:
        step = {
            tuple(sum(a * x for a, x in zip(row, v)) % d for row, d in zip(block, factors))
            for v in image
        }
        if step == image:
            return image
        image = step


def _order_counts(elements, factors) -> Counter:
    return Counter(math.lcm(*(d // math.gcd(x, d) for x, d in zip(v, factors))) for v in elements)


@settings(max_examples=200, deadline=None)
@given(_torsion_maps(max_order=512))
def test_torsion_colimit_matches_brute_force(h):
    image = _eventual_image(h)
    torsion = colimit(GroupSeq((), h)).torsion
    assert math.prod(torsion) == len(image)
    answer = itertools.product(*map(range, torsion))
    assert _order_counts(answer, torsion) == _order_counts(image, h.source.torsion)
