"""The explicit periodicity element over the two-variable Laurent ring.

Everything here is exact symbolic matrix algebra over
Z[1/2][t, 1/t, z, 1/z].  A rank-one idempotent p0 is conjugated by an
invertible matrix u (built with the fixed parameter 1/2), and the
resulting idempotent's entries are assembled into the 2x2 matrix m whose
determinant is a unit.  build_bott checks every identity on the spot;
verify_bott_suite re-runs the same checks on arbitrary (possibly
corrupted) data and reports per-identity outcomes instead of raising.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IdentityViolated, IllFormed, NonUnitAssignment, SpecMismatch
from .matrices import InvMatrix
from .rings import LAURENT2, RingElem, RingSpec, _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Mapping

__all__ = ["BottData", "build_bott", "specialize", "verify_bott_suite"]


class BottData(_Record):
    """Conjugation data for the periodicity element.

    ``p`` is ``u * p0 * u^-1`` with entries ``a, b, c, d`` read off
    row-major; ``m`` is the 2x2 representative built from them.  The
    record itself performs no validation so that corrupted copies can
    be assembled for mutation testing; ``build_bott`` is the validating
    constructor.
    """

    __slots__ = _fields = ("p0", "u", "p", "a", "b", "c", "d", "m")

    def __init__(self, p0: InvMatrix, u: InvMatrix, p: InvMatrix, a: RingElem, b: RingElem,
                 c: RingElem, d: RingElem, m: InvMatrix):
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)


def build_bott(lam: Fraction = Fraction(1, 2)) -> BottData:
    """Construct and verify the periodicity data.

    The parameter is printed as 1/2 in the source construction and the
    identities below are only guaranteed there, so any other value is
    rejected rather than silently producing unverified data.
    """
    if Fraction(lam) != Fraction(1, 2):
        raise SpecMismatch(f"the construction fixes the parameter at 1/2, got {lam}")
    ring = RingSpec.laurent2()
    one = RingElem.one(ring)
    t = RingElem.monomial(1, t_exp=1)
    ti = RingElem.monomial(1, t_exp=-1)
    z = RingElem.monomial(1, z_exp=1)
    u = InvMatrix.from_rows(
        ring,
        [
            [(z + 1) * lam, (z - 1) * lam * lam],
            [z - 1, (z + 1) * lam],
        ],
    )
    det_u = u.det()
    if det_u != z:
        raise IdentityViolated(f"det(u) must be the unit z, got {det_u!r}")
    p0 = InvMatrix.from_rows(ring, [[1, 0], [0, 0]])
    p = u * p0 * u.inverse()
    a, b = p[0, 0], p[0, 1]
    c, d = p[1, 0], p[1, 1]
    if p * p != p:
        raise IdentityViolated("conjugated idempotent must stay idempotent")
    if a + d != one:
        raise IdentityViolated("trace must match trace(p0) = 1")
    m = InvMatrix.from_rows(
        ring,
        [
            [b * (t + ti - 2), a + (one - a) * t],
            [-(one - d + d * ti), -c],
        ],
    )
    if not m.det().is_unit():
        raise IdentityViolated("the representative matrix must be invertible")
    return BottData(p0=p0, u=u, p=p, a=a, b=b, c=c, d=d, m=m)


def _as_laurent_unit(ring: RingSpec, name: str, value: Any) -> RingElem:
    if isinstance(value, RingElem):
        if value.spec != ring:
            raise SpecMismatch(f"{name} must live in {ring}, got {value.spec}")
        elem = value
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        elem = RingElem.from_fraction(ring, value)
    else:
        raise IllFormed(f"{name} must be a ring element or rational, got {value!r}")
    if not elem.is_unit():
        raise NonUnitAssignment(f"{name} := {elem!r} is not a unit")
    return elem


def specialize(bd: BottData, assignments: Mapping[str, Any]) -> InvMatrix:
    """Substitute units for t and/or z in the representative matrix.

    Unassigned variables stay symbolic; the empty map returns m itself.
    Raises NonUnitAssignment for any non-unit value (negative exponents
    must remain meaningful after substitution).
    """
    ring = bd.m.spec
    if ring.kind != LAURENT2:
        raise SpecMismatch("specialization works on the symbolic Laurent data")
    vals: dict[str, RingElem] = {}
    for name, value in assignments.items():
        if name not in ("t", "z"):
            raise IllFormed(f"unknown variable {name!r}; only t and z can be assigned")
        vals[name] = _as_laurent_unit(ring, name, value)
    if not vals:
        return bd.m
    return bd.m.map_entries(lambda e: e.substitute(t=vals.get("t"), z=vals.get("z")))


def _relation(x: RingElem) -> str:
    """How the involution moves one entry: 'fixed', 'negated', or 'neither'."""
    bar = x.involute()
    if bar == x:
        return "fixed"
    if bar == -x:
        return "negated"
    return "neither"


def verify_bott_suite(bd: BottData | None = None) -> dict:
    """Run every matrix-level identity and report pass/fail per check.

    Never raises on a failed identity; the report's ``all_pass`` summarizes
    the boolean checks.  Involution behavior of the idempotent's entries is
    computed and reported as data, not asserted, since no particular
    hermitian presentation is stipulated for m itself.
    """
    if bd is None:
        bd = build_bott()
    ring = bd.m.spec
    one = RingElem.one(ring)
    z = RingElem.monomial(1, z_exp=1)
    checks: dict[str, bool] = {}
    checks["u_invertible"] = bd.u.det().is_unit()
    checks["det_u_is_z"] = bd.u.det() == z
    checks["p_idempotent"] = (bd.p * bd.p) == bd.p
    checks["trace_is_one"] = bd.a + bd.d == one
    conj = None
    if checks["u_invertible"]:
        conj = bd.u * bd.p0 * bd.u.inverse()
    checks["p_conjugates_p0"] = conj is not None and conj == bd.p
    checks["entries_match_p"] = (
        bd.a == bd.p[0, 0] and bd.b == bd.p[0, 1] and bd.c == bd.p[1, 0] and bd.d == bd.p[1, 1]
    )
    checks["det_m_unit"] = bd.m.det().is_unit()
    checks["identity_substitution"] = specialize(bd, {}) == bd.m

    std_symplectic = InvMatrix.from_rows(ring, [[0, 1], [-1, 0]])
    z1 = specialize(bd, {"z": 1})
    checks["z1_collapses_m"] = z1 == std_symplectic
    p_z1 = bd.p.map_entries(lambda e: e.substitute(z=one))
    checks["z1_collapses_p"] = p_z1 == bd.p0
    t1 = specialize(bd, {"t": 1})
    expected_t1 = InvMatrix.from_rows(ring, [[0, 1], [-1, -bd.c]])
    checks["t1_shape"] = t1 == expected_t1
    checks["t1_det_one"] = t1.det() == one
    checks["zt1_is_symplectic"] = specialize(bd, {"z": 1, "t": 1}) == std_symplectic

    involution = {
        "a": _relation(bd.a),
        "b": _relation(bd.b),
        "c": _relation(bd.c),
        "d": _relation(bd.d),
        "m_conj_transpose_is_minus_m": bd.m.conj_transpose() == -bd.m,
    }
    return {
        "checks": checks,
        "involution": involution,
        "all_pass": all(checks.values()),
    }
