"""Lifting involutions and unitaries through a nilpotent ideal."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from wittkit import lifting
from wittkit.errors import (
    IdentityViolated,
    IllFormed,
    NotALift,
    NotCongruent,
    NotUnitaryMod,
    SpecMismatch,
)
from wittkit.lifting import (
    PROJECTION_CONVENTION,
    SelfAdjInvolution,
    associated_projection,
    conjugating_unitary,
    embed_constants,
    lift_involution,
    lift_unitary,
    reduce_mod_I,
    roundtrip_isomorphism_demo,
    _random_involution,
    _random_nilpotent_perturbation,
)
from wittkit.matrices import InvMatrix, _canonical
from wittkit.rings import RingElem, RingSpec, nil_generator

Q = RingSpec.rationals()
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
T2 = RingSpec.trunc_nil(Q, 2)
T3F5 = RingSpec.trunc_nil(F5, 3)
T3F7 = RingSpec.trunc_nil(F7, 3)
T4F5 = RingSpec.trunc_nil(F5, 4)


def test_reduce_and_embed():
    x = nil_generator(T2)
    m = InvMatrix.identity(T2, 2) + InvMatrix.from_rows(T2, [[0, 1], [2, 0]]).scale(x)
    red = reduce_mod_I(m)
    assert red == InvMatrix.identity(Q, 2)
    emb = embed_constants(red, T2)
    assert reduce_mod_I(emb) == red
    with pytest.raises(SpecMismatch):
        reduce_mod_I(red)
    with pytest.raises(SpecMismatch):
        embed_constants(red, Q)


def test_reduce_and_embed_empty_matrices():
    for nrows, ncols in ((0, 0), (2, 0)):
        up = InvMatrix.zeros(T3F5, nrows, ncols)
        down = InvMatrix.zeros(F5, nrows, ncols)
        assert reduce_mod_I(up) == down
        assert embed_constants(down, T3F5) == up


def test_reduce_is_a_ring_map():
    rng = random.Random(3)
    for spec in (T2, T3F5):
        x, p = nil_generator(spec), spec.base.p
        for _ in range(15):
            a = _noisy(rng, x)
            b = _noisy(rng, x)
            assert reduce_mod_I(a * b) == reduce_mod_I(a) * reduce_mod_I(b)
            assert reduce_mod_I(a.conj_transpose()) == reduce_mod_I(a).conj_transpose()
            if p:  # slice 0 is kept as it is, so it must already be canonical
                (grid,), den = reduce_mod_I(a * b)._slice_form()
                assert den == 1 and all(0 <= v < p for row in grid for v in row)


def _noisy(rng: random.Random, x: RingElem) -> InvMatrix:
    base = InvMatrix.from_rows(
        x.spec, [[Fraction(rng.randrange(-3, 4)) for _ in range(2)] for _ in range(2)]
    )
    noise = InvMatrix.from_rows(
        x.spec, [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
    )
    return base + noise.scale(x)


def test_involution_wrapper_validation():
    SelfAdjInvolution(InvMatrix.diagonal(Q, [1, -1]))
    with pytest.raises(IllFormed):
        SelfAdjInvolution(InvMatrix.diagonal(Q, [2]))
    with pytest.raises(IllFormed):
        SelfAdjInvolution(InvMatrix.from_rows(Q, [[0, 1], [-1, 0]]))
    with pytest.raises(IllFormed):
        SelfAdjInvolution(InvMatrix.zeros(Q, 0, 0))


def test_lift_involution_scalar_frozen():
    jbar = SelfAdjInvolution(InvMatrix.identity(Q, 1))
    for c in (1, 2, Fraction(3, 7)):
        r = InvMatrix.from_rows(T2, [[RingElem.series(T2, [1, c])]])
        out = lift_involution(jbar, r)
        assert out.j == InvMatrix.identity(T2, 1)


def test_lift_involution_fixes_involutions():
    jmat = InvMatrix.diagonal(Q, [1, -1])
    j0 = SelfAdjInvolution(jmat)
    emb = embed_constants(jmat, T2)
    assert lift_involution(j0, emb).j == emb


def test_lift_involution_rejects_non_lift():
    jbar = SelfAdjInvolution(InvMatrix.identity(Q, 1))
    with pytest.raises(NotALift):
        lift_involution(jbar, InvMatrix.from_rows(T2, [[RingElem.series(T2, [2, 1])]]))


def test_lift_involution_random_postconditions():
    rng = random.Random(11)
    for _ in range(8):
        jb = _random_involution(F5, 4, rng)
        r = _random_nilpotent_perturbation(jb.j, T4F5, rng)
        out = lift_involution(jb, r)
        assert (out.j * out.j).is_identity()
        assert out.j.is_self_adjoint()
        assert reduce_mod_I(out.j) == jb.j


def test_a_computed_involution_that_fails_its_check_is_the_package_fault(monkeypatch):
    # the same failed J^2 = I check refuses a user's matrix (exit 2) but
    # flags a matrix the package computed as a broken identity (exit 1)
    rng = random.Random(11)
    jb = _random_involution(F5, 3, rng)
    r = _random_nilpotent_perturbation(jb.j, T3F5, rng)
    monkeypatch.setattr(lifting, "inv_sqrt_one_plus", lambda g: InvMatrix.identity(g.spec, g.nrows))
    s = (r + r.conj_transpose()).scale(RingElem.from_fraction(T3F5, Fraction(1, 2)))
    assert not (s * s).is_identity()
    with pytest.raises(IllFormed, match="square to the identity"):
        SelfAdjInvolution(s)
    with pytest.raises(IdentityViolated, match="computed involution"):
        lift_involution(jb, r)


def test_conjugating_unitary_checks_the_congruence_to_I(monkeypatch):
    # -U is unitary and intertwines as well; only U = I mod x tells them apart
    rng = random.Random(17)
    jb = _random_involution(F5, 3, rng)
    ja = lift_involution(jb, _random_nilpotent_perturbation(jb.j, T3F5, rng))
    ident3 = InvMatrix.identity(F5, 3)
    nu = lift_unitary(ident3, _random_nilpotent_perturbation(ident3, T3F5, rng))
    jc = SelfAdjInvolution(nu * ja.j * nu.conj_transpose())
    real = lifting.inv_sqrt_one_plus
    monkeypatch.setattr(lifting, "inv_sqrt_one_plus", lambda g: -real(g))
    with pytest.raises(IdentityViolated, match="congruent to I"):
        conjugating_unitary(ja, jc)


def _round_trip_inputs(base, k, n, seed):
    """An involution and a lift of it, and a lift of I, over B[x]/(x^k)."""
    rng, spec = random.Random(seed), RingSpec.trunc_nil(base, k)
    jb = _random_involution(base, n, rng)
    ident = InvMatrix.identity(base, n)
    return jb, _random_nilpotent_perturbation(jb.j, spec, rng), ident, _random_nilpotent_perturbation(ident, spec, rng)


@pytest.mark.parametrize("target", ["lift_unitary", "conjugating_unitary"])
@pytest.mark.parametrize("base", [Q, F5], ids=str)
def test_a_corrupted_polar_correction_is_first_caught_by_the_unitarity_check(base, target, monkeypatch):
    # the product by (I + g)^(-1/2) gets one wrong integer in its top
    # degree: its reduction mod x and the square root's own check stand, so
    # the unitarity check on the slices is the first to refuse it
    jb, r, ident, beta = _round_trip_inputs(base, 3, 3, 31)
    ja = lift_involution(jb, r)
    nu = lift_unitary(ident, beta)
    jc = SelfAdjInvolution(nu * ja.j * nu.conj_transpose())
    roots, corrupted, verdicts = [], [], []
    real_root, real_mul, real_unitary = lifting.inv_sqrt_one_plus, InvMatrix.__mul__, InvMatrix.is_unitary

    def corrupt(x, y):
        out = real_mul(x, y)
        if any(y is u for u in roots):
            slices, den = out._slice_form()
            grids = [[list(row) for row in s] for s in slices]
            grids[-1][0][0] += 1
            out = _canonical(out.spec, grids, den, out.nrows, out.ncols)
            corrupted.append(out)
        return out

    monkeypatch.setattr(lifting, "inv_sqrt_one_plus", lambda g: roots.append(real_root(g)) or roots[-1])
    monkeypatch.setattr(InvMatrix, "__mul__", corrupt)
    monkeypatch.setattr(InvMatrix, "is_unitary", lambda m: verdicts.append(real_unitary(m)) or verdicts[-1])
    with pytest.raises(IdentityViolated, match="polar correction" if target == "lift_unitary" else "conjugator"):
        lift_unitary(ident, beta) if target == "lift_unitary" else conjugating_unitary(ja, jc)
    (bad,) = corrupted
    assert verdicts[-1] is False and verdicts.count(False) == 1
    assert reduce_mod_I(bad).is_identity()  # alpha = I, and the conjugator is I mod x
    assert not real_mul(bad, bad.conj_transpose()).is_identity()


def test_a_lift_round_trip_takes_nine_products(monkeypatch):
    # J^2 = I, U U* = I and the intertwining are checked on the slices, so
    # the products left are the constructions: S*S and S*U in
    # lift_involution, beta* beta and beta*U in lift_unitary, the conjugated
    # lift nu*J*nu*, and J2*J1, delta*delta* and delta*U in
    # conjugating_unitary
    counts, real_mul = [], InvMatrix.__mul__
    monkeypatch.setattr(InvMatrix, "__mul__", lambda x, y: counts.append(1) or real_mul(x, y))

    def counted(fn, *args):
        counts.clear()
        out = fn(*args)
        return out, len(counts)

    for base in (Q, F5, F7):
        for k in (2, 4):
            jb, r, ident, beta = _round_trip_inputs(base, k, 4, k)
            ja, involution = counted(lift_involution, jb, r)
            nu, unitary = counted(lift_unitary, ident, beta)
            jc, conjugated = counted(lambda: SelfAdjInvolution(nu * ja.j * nu.conj_transpose()))
            _, conjugator = counted(conjugating_unitary, ja, jc)
            assert (involution, unitary, conjugated, conjugator) == (2, 2, 2, 3), (base, k)


def test_associated_projection():
    assert associated_projection(SelfAdjInvolution(InvMatrix.identity(Q, 2))).is_zero()
    assert associated_projection(
        SelfAdjInvolution(InvMatrix.diagonal(Q, [-1, -1]))
    ).is_identity()
    p = associated_projection(SelfAdjInvolution(InvMatrix.diagonal(Q, [1, -1])))
    assert p == InvMatrix.diagonal(Q, [0, 1])
    assert PROJECTION_CONVENTION == "P = (I - J)/2"


def test_lift_unitary_scalar_frozen():
    alpha = InvMatrix.identity(Q, 1)
    beta = InvMatrix.from_rows(T2, [[RingElem.series(T2, [1, 1])]])
    assert lift_unitary(alpha, beta) == InvMatrix.identity(T2, 1)


def test_lift_unitary_fixes_unitaries():
    jmat = InvMatrix.diagonal(Q, [1, -1])
    emb = embed_constants(jmat, T2)
    assert lift_unitary(jmat, emb) == emb


def test_lift_unitary_rejections():
    with pytest.raises(NotUnitaryMod):
        lift_unitary(InvMatrix.diagonal(Q, [2]), InvMatrix.from_rows(T2, [[2]]))
    alpha = InvMatrix.identity(Q, 1)
    with pytest.raises(NotALift):
        lift_unitary(alpha, InvMatrix.from_rows(T2, [[RingElem.series(T2, [2, 1])]]))


def test_lift_unitary_noncommuting_case():
    # 3x3 perturbations do not commute with their adjoints, so this is the
    # case where the order of the polar correction factor matters
    rng = random.Random(5)
    for _ in range(8):
        al = _random_involution(F7, 3, rng).j
        be = _random_nilpotent_perturbation(al, T3F7, rng)
        g = lift_unitary(al, be)
        assert g.is_unitary()
        assert reduce_mod_I(g) == al


def test_conjugating_unitary_identity_cases():
    jmat = InvMatrix.diagonal(Q, [1, -1])
    j1 = lift_involution(SelfAdjInvolution(jmat), embed_constants(jmat, T2))
    assert conjugating_unitary(j1, j1).is_identity()
    one1 = SelfAdjInvolution(InvMatrix.identity(T2, 1))
    assert conjugating_unitary(one1, one1).is_identity()


def test_conjugating_unitary_random_pairs():
    rng = random.Random(17)
    ident4 = InvMatrix.identity(F5, 4)
    for _ in range(8):
        jb = _random_involution(F5, 4, rng)
        ja = lift_involution(jb, _random_nilpotent_perturbation(jb.j, T3F5, rng))
        nu = lift_unitary(ident4, _random_nilpotent_perturbation(ident4, T3F5, rng))
        jc = SelfAdjInvolution(nu * ja.j * nu.conj_transpose())
        dp = conjugating_unitary(ja, jc)
        assert dp.is_unitary()
        assert dp * ja.j == jc.j * dp


@pytest.mark.parametrize("spec", [Q, T3F5], ids=str)
def test_commute_test_of_conjugating_unitary_matches_the_commutator(spec):
    # for self-adjoint J and D: D*J == J*D iff D == D^* and D*J == (D*J)^*
    rng = random.Random(str(spec))
    k = spec.k or 1

    def symmetric(n):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                e = [rng.randrange(-2, 3) for _ in range(k)]
                rows[i][j] = rows[j][i] = e if spec.kind == "truncnil" else e[0]
        return InvMatrix.from_rows(spec, rows)

    outcomes = set()
    for n in (1, 2, 3, 4):
        for _ in range(25):
            j = symmetric(n)
            # a polynomial in J commutes with it; a random D rarely does
            if rng.random() < 0.5:
                d = j * j.scale(rng.randrange(-2, 3)) + j + InvMatrix.identity(spec, n).scale(rng.randrange(-2, 3))
            else:
                d = symmetric(n)
            assert j.is_self_adjoint() and d.is_self_adjoint()
            commute = d * j == j * d
            assert commute == (d.is_self_adjoint() and (d * j).is_self_adjoint())
            outcomes.add(commute)
    assert outcomes == {True, False}


def test_conjugating_unitary_rejects_different_reductions():
    jd = SelfAdjInvolution(embed_constants(InvMatrix.diagonal(F5, [1, -1, 1, 1]), T3F5))
    je = SelfAdjInvolution(embed_constants(InvMatrix.diagonal(F5, [1, 1, -1, 1]), T3F5))
    with pytest.raises(NotCongruent):
        conjugating_unitary(jd, je)
    with pytest.raises(SpecMismatch):
        conjugating_unitary(
            jd, SelfAdjInvolution(embed_constants(InvMatrix.diagonal(F5, [1]), T3F5))
        )


def test_two_lifts_of_one_reduction_are_conjugate():
    rng = random.Random(23)
    jb = _random_involution(F5, 3, rng)
    la = lift_involution(jb, _random_nilpotent_perturbation(jb.j, T3F5, rng))
    lb = lift_involution(jb, _random_nilpotent_perturbation(jb.j, T3F5, rng))
    dp = conjugating_unitary(la, lb)
    assert dp * la.j == lb.j * dp
    assert dp.is_unitary()
    assert reduce_mod_I(dp).is_identity()


def test_roundtrip_demo_report():
    rep = roundtrip_isomorphism_demo(Q, 2, 2, 25)
    assert rep["all_passed"]
    assert rep["surjectivity_successes"] == 25
    assert rep["injectivity_successes"] == 25
    assert rep["base"] == "q"
    assert rep["k"] == 2 and rep["n"] == 2 and rep["trials"] == 25
    assert rep["projection_convention"] == PROJECTION_CONVENTION
    # k = 1: the ideal is zero and every trial is trivially fine
    assert roundtrip_isomorphism_demo(Q, 1, 3, 5)["all_passed"]


def test_demo_inputs_and_report_are_pinned():
    # the perturbation writes its random integers straight into the degree
    # slots, drawing them in the order of the former per-degree matrices
    # (degree, then row, then column); these values come from that version
    expected = {
        Q: [[("-7/25", "1", "-2"), ("24/25", "1", "-2")], [("24/25", "-1", "1"), ("7/25", "-2", "2")]],
        F5: [[("4", "1", "3"), ("0", "4", "1")], [("0", "3", "2"), ("1", "3", "0")]],
    }
    for base, (cells, after) in zip((Q, F5), ((expected[Q], 939), (expected[F5], 819))):
        rng = random.Random(4)
        j = _random_involution(base, 2, rng)
        m = _random_nilpotent_perturbation(j.j, RingSpec.trunc_nil(base, 3), rng)
        assert [[tuple(map(str, e)) for e in row] for row in m.cells] == cells
        assert rng.randrange(1000) == after
    assert roundtrip_isomorphism_demo(Q, 3, 3, 2, seed=11) == {
        "base": "q", "k": 3, "n": 3, "trials": 2, "seed": 11,
        "surjectivity_successes": 2, "injectivity_successes": 2, "all_passed": True,
        "projection_convention": "P = (I - J)/2",
    }


def test_the_demo_multiplies_nothing_after_the_conjugator(monkeypatch):
    # lift_involution and conjugating_unitary check their own answers and
    # raise otherwise, so a trial counts once they return: no InvMatrix
    # product follows conjugating_unitary before the next trial draws
    events = []
    mul, conj, draw = InvMatrix.__mul__, lifting.conjugating_unitary, lifting._random_involution
    monkeypatch.setattr(InvMatrix, "__mul__", lambda x, y: events.append("mul") or mul(x, y))
    monkeypatch.setattr(lifting, "conjugating_unitary", lambda *a: (conj(*a), events.append("conj"))[0])
    monkeypatch.setattr(lifting, "_random_involution", lambda *a: events.append("trial") or draw(*a))
    for base in (Q, F5):
        events.clear()
        rep = roundtrip_isomorphism_demo(base, 4, 3, 3)
        assert rep["surjectivity_successes"] == rep["injectivity_successes"] == 3 and rep["all_passed"]
        assert events.count("trial") == events.count("conj") == 3 and "mul" in events
        after = [events[i + 1] if i + 1 < len(events) else "end" for i, e in enumerate(events) if e == "conj"]
        assert after == ["trial", "trial", "end"]


def test_roundtrip_demo_deterministic():
    a = roundtrip_isomorphism_demo(F5, 2, 2, 3, seed=9)
    b = roundtrip_isomorphism_demo(F5, 2, 2, 3, seed=9)
    assert a == b
    assert a["seed"] == 9


def test_roundtrip_demo_bounds():
    for bad in ((Q, 7, 2, 1), (Q, 2, 9, 1), (Q, 2, 2, 0), (Q, 2, 2, 1001)):
        with pytest.raises(IllFormed):
            roundtrip_isomorphism_demo(*bad)
    with pytest.raises(SpecMismatch):
        roundtrip_isomorphism_demo(RingSpec.dyadic(), 2, 2, 1)
