"""The symbolic periodicity element and its verification suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from wittkit.bott import BottData, build_bott, specialize, verify_bott_suite
from wittkit.errors import IllFormed, NonUnitAssignment, SpecMismatch
from wittkit.matrices import InvMatrix
from wittkit.rings import RingElem, RingSpec

L2 = RingSpec.laurent2()

CHECK_KEYS = (
    "u_invertible",
    "det_u_is_z",
    "p_idempotent",
    "trace_is_one",
    "p_conjugates_p0",
    "entries_match_p",
    "det_m_unit",
    "identity_substitution",
    "z1_collapses_m",
    "z1_collapses_p",
    "t1_shape",
    "t1_det_one",
    "zt1_is_symplectic",
)


def _mono(c, i=0, j=0) -> RingElem:
    return RingElem.monomial(Fraction(c), i, j)


def test_suite_all_green():
    rep = verify_bott_suite(build_bott())
    assert tuple(rep["checks"].keys()) == CHECK_KEYS
    assert all(rep["checks"].values())
    assert rep["all_pass"] is True
    assert rep["involution"] == {
        "a": "fixed",
        "b": "negated",
        "c": "negated",
        "d": "fixed",
        "m_conj_transpose_is_minus_m": True,
    }


def test_entries_frozen():
    bd = build_bott()
    z = _mono(1, 0, 1)
    zi = _mono(1, 0, -1)
    quarter = _mono(Fraction(1, 4))
    assert bd.a == (z + _mono(2) + zi) * quarter
    assert bd.b == (zi - z) * _mono(Fraction(1, 8))
    assert bd.c == (z - zi) * _mono(Fraction(1, 2))
    assert bd.d == -(z - _mono(2) + zi) * quarter
    # rank-one idempotent: trace 1, ad = bc
    assert bd.a + bd.d == RingElem.one(L2)
    assert bd.a * bd.d == bd.b * bd.c
    assert bd.m.det() == RingElem.one(L2)
    assert bd.m.conj_transpose() == -bd.m


def test_det_u_against_hand_expansion():
    bd = build_bott()
    u = bd.u
    assert u.shape == (2, 2)
    assert u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] == _mono(1, 0, 1)
    assert u * u.inverse() == InvMatrix.identity(L2, 2)


def test_parameter_is_pinned():
    with pytest.raises(SpecMismatch):
        build_bott(Fraction(1, 3))
    assert verify_bott_suite(build_bott(Fraction(2, 4)))["all_pass"]


def test_specializations():
    bd = build_bott()
    symplectic = InvMatrix.from_rows(L2, [[0, 1], [-1, 0]])
    assert specialize(bd, {"z": 1}) == symplectic
    assert specialize(bd, {"t": 1, "z": 1}) == symplectic
    mt = specialize(bd, {"t": 1})
    assert mt.shape == (2, 2)
    assert mt.det() == RingElem.one(L2)
    # units only; z stays symbolic here so the entries still involve z
    m2 = specialize(bd, {"t": Fraction(-1, 2)})
    assert m2.det().is_unit()


def test_specialize_rejects_bad_assignments():
    bd = build_bott()
    t = RingElem.monomial(1, t_exp=1)
    with pytest.raises(NonUnitAssignment):
        specialize(bd, {"t": t + RingElem.one(L2)})
    with pytest.raises(NonUnitAssignment):
        specialize(bd, {"z": 0})
    with pytest.raises(IllFormed):
        specialize(bd, {"w": 1})


def test_substitution_is_a_ring_map():
    bd = build_bott()
    sub = dict(t=Fraction(2), z=Fraction(-1, 2))

    def spec_of(mat: InvMatrix) -> InvMatrix:
        return mat.map_entries(lambda e: e.substitute(**sub))

    lhs = spec_of(bd.u * bd.p0 * bd.u.inverse())
    rhs = spec_of(bd.u) * spec_of(bd.p0) * spec_of(bd.u).inverse()
    assert lhs == rhs == spec_of(bd.p)


def test_mutated_data_is_caught():
    bd = build_bott()
    tampered = BottData(bd.p0, bd.u, bd.p, bd.a, bd.b, bd.c, bd.d, InvMatrix.identity(L2, 2))
    rep = verify_bott_suite(tampered)
    assert not rep["all_pass"]
    assert [k for k, v in rep["checks"].items() if not v] == [
        "z1_collapses_m",
        "t1_shape",
        "zt1_is_symplectic",
    ]
    assert rep["involution"]["m_conj_transpose_is_minus_m"] is False

    shifted = BottData(bd.p0, bd.u, bd.p, bd.a + RingElem.one(L2), bd.b, bd.c, bd.d, bd.m)
    rep2 = verify_bott_suite(shifted)
    assert [k for k, v in rep2["checks"].items() if not v] == [
        "trace_is_one",
        "entries_match_p",
    ]


def test_default_argument_builds_fresh_data():
    assert verify_bott_suite()["all_pass"]
    assert isinstance(build_bott(), BottData)
