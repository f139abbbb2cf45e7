"""Torsion colimits in closed form against the lattice fixpoint and brute force.

``colimit`` reads the torsion part off A^M for M >= log2 |G|;
``stabilization_reference`` iterates lattice bases until the image stops
shrinking, and the brute force iterates sets of elements.  On random
well-defined endomorphisms of Z/d_1 + ... + Z/d_s with s <= 3 all three
must give the same group.
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
    """A well-defined endomorphism of Z/d_1 + ... + Z/d_s, s <= 3, each d_i
    1 to 6 times the one before; factors past ``max_order`` are dropped."""
    factors = [draw(st.sampled_from(_FIRST_ORDERS))]
    for _ in range(draw(st.integers(0, 2))):
        factors.append(factors[-1] * draw(st.integers(1, 6)))
    while max_order is not None and math.prod(factors) > max_order:
        factors.pop()
    s = len(factors)
    # into a smaller factor anything goes; into a larger one, a multiple of the ratio
    rows = tuple(
        tuple(draw(st.integers(-6, 6)) * (factors[i] // factors[j] if i > j else 1) for j in range(s))
        for i in range(s)
    )
    group = FgAbGroup(0, tuple(factors))
    return GroupHom(group, group, rows)


# The fixpoint's coefficients can explode past |G| = 2048: on Z/8+Z/48+Z/96
# with ((-2, 3, 5), (-18, 4, -6), (36, 0, -1)) it takes over a minute, while
# over 160000 random maps of order at most 2048 none took 0.1 s.
@settings(max_examples=300, deadline=None)
@given(_torsion_maps(max_order=2048))
def test_torsion_colimit_matches_the_lattice_fixpoint(h):
    assert colimit(GroupSeq((), h)).torsion == ref._torsion_colimit(h)


def _eventual_image(h: GroupHom) -> set:
    factors = h.source.torsion
    image = set(itertools.product(*map(range, factors)))
    while True:
        step = {
            tuple(sum(a * x for a, x in zip(row, v)) % d for row, d in zip(h.matrix, factors))
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
