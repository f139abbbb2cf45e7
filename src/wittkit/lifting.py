"""Lifting involutions and unitaries through a nilpotent quotient.

The quotient is always B[x]/(x^k) -> B, x -> 0.  Since 2 is invertible
in every supported base ring, a self-adjoint involution over the
quotient lifts to one upstairs, and any two lifts are conjugate by a
unitary congruent to the identity.  Both directions are effective: the
correction factors are values of the (1 + g)^(-1/2) series at nilpotent
self-adjoint arguments, so every identity below is exact, checked with
plain ==, never with tolerances.

Projection dictionary: a self-adjoint involution J corresponds to the
self-adjoint projection P = (I - J)/2 (so J = I - 2P).  The opposite
sign convention (J - 1)/2 appears in the literature; the one used here
is recorded in ``PROJECTION_CONVENTION`` and in demo reports.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    IdentityViolated,
    IllFormed,
    NotALift,
    NotCongruent,
    NotUnitaryMod,
    SpecMismatch,
)
from .matrices import InvMatrix, _canonical, _intertwines, inv_sqrt_one_plus
from .rings import LAURENT2, PRIME_FIELD, RATIONALS, TRUNC_NIL, RingElem, RingSpec, _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random

__all__ = [
    "PROJECTION_CONVENTION",
    "SelfAdjInvolution",
    "associated_projection",
    "conjugating_unitary",
    "embed_constants",
    "lift_involution",
    "lift_unitary",
    "reduce_mod_I",
    "roundtrip_isomorphism_demo",
]

PROJECTION_CONVENTION = "P = (I - J)/2"


class SelfAdjInvolution(_Record):
    """A matrix J with J^2 = I and J* = J, both checked at construction:
    J* = J first, and then J^2 = I as J J* = I by ``is_unitary``, which over
    fp, q, dyadic and truncnil over them takes no product."""

    __slots__ = _fields = ("j",)

    def __init__(self, j: InvMatrix):
        if j.nrows != j.ncols or j.nrows == 0:
            raise IllFormed(f"an involution must be square and nonempty, got {j.nrows}x{j.ncols}")
        if not j.is_self_adjoint():
            raise IllFormed("matrix is not self-adjoint")
        if not j.is_unitary():  # J J* = J^2, since J* = J
            raise IllFormed("matrix does not square to the identity")
        object.__setattr__(self, "j", j)

    @classmethod
    def _computed(cls, j: InvMatrix) -> "SelfAdjInvolution":
        """For a matrix the package computed, whose failed check is its own fault."""
        try:
            return cls(j)
        except IllFormed as exc:
            raise IdentityViolated(f"computed involution: {exc}") from None

    @property
    def ring(self) -> RingSpec:
        return self.j.spec

    @property
    def dim(self) -> int:
        return self.j.nrows


def _require_trunc(spec: RingSpec, who: str) -> RingSpec:
    if spec.kind != TRUNC_NIL:
        raise SpecMismatch(f"{who} works over a truncated ring, got {spec}")
    assert spec.base is not None
    return spec.base


def reduce_mod_I(m: InvMatrix) -> InvMatrix:
    """Kill x: keep the constant coefficient of every entry."""
    base = _require_trunc(m.spec, "reduction")
    if base.kind != LAURENT2:
        slices, den = m._slice_form()
        if base.p:  # den = 1, and slice 0 is already canonical
            return InvMatrix._from_slices(base, slices[:1], 1, m.nrows, m.ncols)
        return _canonical(base, slices[:1], den, m.nrows, m.ncols)
    grid = tuple(tuple([e[0] for e in row]) for row in m.cells)
    return InvMatrix(base, grid, m.nrows, m.ncols)


def embed_constants(m: InvMatrix, spec: RingSpec) -> InvMatrix:
    """Section of ``reduce_mod_I``: view a base-ring matrix upstairs."""
    base = _require_trunc(spec, "embedding")
    if m.spec != base:
        raise SpecMismatch(f"matrix over {m.spec} does not embed into {spec}")
    assert spec.k is not None
    if base.kind != LAURENT2:
        (constants,), den = m._slice_form()
        zeros = [[[0] * m.ncols] * m.nrows] * (spec.k - 1)
        return InvMatrix._from_slices(spec, [constants, *zeros], den, m.nrows, m.ncols)
    pad = (base.zero,) * (spec.k - 1)
    grid = tuple(tuple([(e, *pad) for e in row]) for row in m.cells)
    return InvMatrix(spec, grid, m.nrows, m.ncols)


def associated_projection(j: SelfAdjInvolution) -> InvMatrix:
    """The self-adjoint idempotent P = (I - J)/2 cutting out J's (-1)-eigenspace."""
    ident = InvMatrix.identity(j.ring, j.dim)
    p = (ident - j.j).scale(RingElem.from_fraction(j.ring, Fraction(1, 2)))
    if p * p != p or not p.is_self_adjoint():
        raise IdentityViolated("(I - J)/2 is not a self-adjoint idempotent")
    return p


def lift_involution(jbar: SelfAdjInvolution, r: InvMatrix) -> SelfAdjInvolution:
    """Correct an arbitrary lift of an involution into an exact one.

    Symmetrizing gives S = (R + R*)/2; then gamma = S^2 - I is
    nilpotent, self-adjoint, and commutes with S, so U = (I + gamma)^(-1/2)
    makes SU square to I while leaving the reduction untouched.
    """
    spec = r.spec
    base = _require_trunc(spec, "involution lifting")
    if jbar.ring != base:
        raise SpecMismatch(f"cannot lift an involution over {jbar.ring} into {spec}")
    if reduce_mod_I(r) != jbar.j:
        raise NotALift("the given matrix does not reduce to the involution")
    half = RingElem.from_fraction(spec, Fraction(1, 2))
    s = (r + r.conj_transpose()).scale(half)
    gamma = s * s - InvMatrix.identity(spec, r.nrows)
    out = s * inv_sqrt_one_plus(gamma)
    lifted = SelfAdjInvolution._computed(out)
    if reduce_mod_I(out) != jbar.j:
        raise IdentityViolated("the corrected involution no longer reduces to the given one")
    return lifted


def lift_unitary(alpha: InvMatrix, beta: InvMatrix) -> InvMatrix:
    """Polar-correct an invertible lift of a unitary into an exact unitary.

    The correction factor must sit on the matching side: with the inner
    product beta^* beta the result is beta*(beta^* beta)^(-1/2), equal to
    (beta beta^*)^(-1/2)*beta, and gamma*gamma^* = I holds exactly.
    Attaching (beta beta^*)^(-1/2) on the right instead breaks unitarity
    as soon as beta and beta^* fail to commute.
    """
    spec = beta.spec
    base = _require_trunc(spec, "unitary lifting")
    if alpha.spec != base:
        raise SpecMismatch(f"cannot lift a matrix over {alpha.spec} into {spec}")
    if not alpha.is_unitary():
        raise NotUnitaryMod("the matrix to lift is not unitary")
    if reduce_mod_I(beta) != alpha:
        raise NotALift("the given matrix does not reduce to the unitary")
    h = beta.conj_transpose() * beta
    gamma = beta * inv_sqrt_one_plus(h - InvMatrix.identity(spec, beta.nrows))
    if not gamma.is_unitary() or reduce_mod_I(gamma) != alpha:
        raise IdentityViolated("the polar correction is not a unitary lift")
    return gamma


def conjugating_unitary(j1: SelfAdjInvolution, j2: SelfAdjInvolution) -> InvMatrix:
    """Unitary congruent to I carrying one lift of an involution to another.

    The intertwiner is delta = (I + J2*J1)/2; written in this order it
    satisfies delta*J1 = J2*delta on the nose (both sides equal
    (J1 + J2)/2), while the reversed product (I + J1*J2)/2 does not.
    delta*delta^* commutes with J1, so the polar correction preserves
    the intertwining property.  One final check proves the answer: it is
    unitary, congruent to I, and carries J1 to J2 (``_intertwines``, on the
    slices where the ring has them).
    """
    if j1.ring != j2.ring or j1.dim != j2.dim:
        raise SpecMismatch("the involutions must act on the same module")
    spec = j1.ring
    _require_trunc(spec, "conjugator construction")
    if reduce_mod_I(j1.j) != reduce_mod_I(j2.j):
        raise NotCongruent("the involutions differ modulo the nilpotent ideal")
    ident = InvMatrix.identity(spec, j1.dim)
    half = RingElem.from_fraction(spec, Fraction(1, 2))
    delta = (ident + j2.j * j1.j).scale(half)
    out = delta * inv_sqrt_one_plus(delta * delta.conj_transpose() - ident)
    if not out.is_unitary() or not reduce_mod_I(out).is_identity() or not _intertwines(out, j1.j, j2.j):
        raise IdentityViolated("the conjugator is not a unitary intertwiner congruent to I")
    return out


# ---------------------------------------------------------------------------
# randomized demo
# ---------------------------------------------------------------------------


def _random_involution(base: RingSpec, n: int, rng: random.Random) -> SelfAdjInvolution:
    """Random self-adjoint involution: diag(+-1) conjugated by a Cayley orthogonal."""
    signs = [rng.choice((1, -1)) for _ in range(n)]
    d = InvMatrix.diagonal(base, signs)
    ident = InvMatrix.identity(base, n)
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for jx in range(i + 1, n):
                rows[i][jx] = rng.randrange(-2, 3)
                rows[jx][i] = -rows[i][jx]
        skew = InvMatrix.from_rows(base, rows)
        _, inv = (ident - skew).det_and_inverse()
        if inv is not None:
            q = (ident + skew) * inv
            return SelfAdjInvolution._computed(q.conj_transpose() * d * q)


def _random_nilpotent_perturbation(
    m: InvMatrix, spec: RingSpec, rng: random.Random
) -> InvMatrix:
    """Embed m over q or fp, with random integers in every positive x-degree."""
    assert spec.k is not None
    n = m.nrows
    (constants,), den = m._slice_form()
    higher = [[[den * rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)] for _ in range(1, spec.k)]
    return _canonical(spec, [constants, *higher], den, n, n)


def roundtrip_isomorphism_demo(
    base: RingSpec, k: int, n: int, trials: int, seed: int = 0
) -> dict:
    """Exercise both lifting directions on random inputs; each half must
    succeed on every trial, and every check is an exact identity.  The
    lifting functions check their own answers and raise otherwise, so a
    half counts as a success once its calls return.

    Trials are independently seeded (seed + index), so the batch could be
    split across workers without changing the outcome.
    """
    if base.kind not in (RATIONALS, PRIME_FIELD):
        raise SpecMismatch(f"demo bases are q or an odd prime field, got {base}")
    if not 1 <= n <= 8 or not 1 <= k <= 6:
        raise IllFormed(f"desk-scale bounds are 1 <= n <= 8 and 1 <= k <= 6, got n={n} k={k}")
    if not 1 <= trials <= 1000:
        raise IllFormed(f"trials must be between 1 and 1000, got {trials}")
    import random  # loaded here, not with the package: only the demo draws

    spec = RingSpec.trunc_nil(base, k)
    ident = InvMatrix.identity(base, n)
    surjectivity = 0
    injectivity = 0
    for index in range(trials):
        rng = random.Random(seed + index)
        jbar = _random_involution(base, n, rng)
        lifted = lift_involution(jbar, _random_nilpotent_perturbation(jbar.j, spec, rng))
        surjectivity += 1
        nu = lift_unitary(ident, _random_nilpotent_perturbation(ident, spec, rng))
        other = SelfAdjInvolution._computed(nu * lifted.j * nu.conj_transpose())
        conjugating_unitary(lifted, other)
        injectivity += 1
    return {
        "base": str(base),
        "k": k,
        "n": n,
        "trials": trials,
        "seed": seed,
        "surjectivity_successes": surjectivity,
        "injectivity_successes": injectivity,
        "all_passed": surjectivity == trials and injectivity == trials,
        "projection_convention": PROJECTION_CONVENTION,
    }
