"""Forms layer: diagonalization, isotropy search, hyperbolic splitting."""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

import pytest

from wittkit import forms
from wittkit.errors import (
    BudgetExceeded,
    DegenerateForm,
    IdentityViolated,
    IllFormed,
    OracleInconclusive,
    SpecMismatch,
)
from wittkit.forms import (
    GramForm,
    WittDecomposition,
    diagonalize,
    hyperbolic,
    interchange_isometry,
    isotropy_oracle,
    orth_sum,
    symplectic_basis,
    tensor,
    witt_decompose,
)
from wittkit.intlinalg import columns_to_matrix, int_det, matmul_int
from wittkit.invariants import witt_class, witt_equiv
from wittkit.matrices import InvMatrix, _canonical
from wittkit.rings import RingElem, RingSpec, canon_payload, nil_generator

Q = RingSpec.rationals()
DY = RingSpec.dyadic()
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)


def _shear(spec: RingSpec, n: int, rng: random.Random) -> InvMatrix:
    """Unimodular upper/lower shear; keeps congruent Gram entries small."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rng.choice([-2, -1, 1, 2])
    return InvMatrix.from_rows(spec, rows)


def test_gram_form_validation():
    with pytest.raises(DegenerateForm):
        GramForm.from_rows(Q, [[1, 1], [1, 1]])
    with pytest.raises(IllFormed):
        GramForm.from_rows(Q, [[0, 1], [2, 0]])
    with pytest.raises(IllFormed):
        GramForm.from_rows(Q, [[1]], epsilon=-1)
    with pytest.raises(IllFormed):
        GramForm.diagonal(Q, [1], epsilon=0)
    # dyadic Gram entries must make the determinant a unit
    with pytest.raises(DegenerateForm):
        GramForm.diagonal(DY, [3])


def test_bilinear_and_evaluate():
    f = GramForm.from_rows(Q, [[1, 2], [2, 1]])
    assert f.bilinear([1, 0], [0, 1]) == RingElem.from_fraction(Q, 2)
    assert f.evaluate([1, 1]) == RingElem.from_fraction(Q, 6)
    assert f.evaluate([Fraction(1, 2), 0]) == RingElem.from_fraction(Q, Fraction(1, 4))


def test_diagonalize_is_congruence():
    rng = random.Random(11)
    for spec in (Q, F5, F7, DY):
        for n in range(1, 5):
            for _ in range(6):
                f = _random_symmetric(spec, n, rng)
                p, d = diagonalize(f)
                assert d.is_diagonal()
                assert p.conj_transpose() * f.gram * p == d.gram


def _random_symmetric(spec: RingSpec, n: int, rng: random.Random) -> GramForm:
    # build as P* D P with unit diagonal so nondegeneracy is automatic
    if spec.kind == "dyadic":
        units = [Fraction(s * 2**k) for s in (1, -1) for k in (0, 1)]
        diag = [rng.choice(units) for _ in range(n)]
    elif spec.kind == "fp":
        diag = [rng.randrange(1, spec.p) for _ in range(n)]
    else:
        diag = [Fraction(rng.choice([1, -1, 2, -3, 5])) for _ in range(n)]
    g = InvMatrix.diagonal(spec, diag)
    for _ in range(3):
        s = _shear(spec, n, rng)
        g = s.conj_transpose() * g * s
    return GramForm(g)


def test_dyadic_diagonal_normalizes_to_unit_representatives():
    f = GramForm.diagonal(DY, [4, Fraction(-1, 2), 8])
    _, d = diagonalize(f)
    allowed = {
        RingElem.from_fraction(DY, v) for v in (1, -1, 2, -2)
    }
    assert set(d.diagonal_entries()) <= allowed


# Forms with no usable diagonal pivot.  swap3 swaps a later pivot in, path4
# has no nonzero diagonal entry, so over a field it first adds a neighbour
# to e_0, and scaled2 does that too.  Over Z[1/2] each comes to a block with
# no unit on its diagonal, takes a unit-valued vector of a 2 x 2 block of
# unit determinant and splits it off with its orthogonal complement;
# scaled2's pivot of 8 is then rescaled to 2.  P and D are pinned as the
# elimination order produces them.
_ZERO_DIAGONAL_FORMS = {
    "swap3": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "path4": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
    "scaled2": [[0, 4], [4, 0]],
}
F = Fraction
_ZERO_DIAGONAL_PINS = [
    (F5, "swap3", [[0, 1, 3], [0, 1, 2], [1, 0, 0]], [1, 2, 2]),
    (F5, "path4", [[1, 2, 4, 3], [1, 3, 0, 0], [0, 0, 1, 2], [0, 0, 1, 3]], [2, 2, 2, 2]),
    (F5, "scaled2", [[1, 2], [1, 3]], [3, 3]),
    (Q, "swap3", [[0, 1, F(1, 2)], [0, 1, F(-1, 2)], [1, 0, 0]], [1, 2, F(-1, 2)]),
    (Q, "path4", [[1, F(-1, 2), -1, F(1, 2)], [1, F(1, 2), 0, 0], [0, 0, 1, F(-1, 2)], [0, 0, 1, F(1, 2)]],
     [2, F(-1, 2), 2, F(-1, 2)]),
    (Q, "scaled2", [[1, F(-1, 2)], [1, F(1, 2)]], [8, -2]),
    (DY, "swap3", [[0, 1, -1], [0, 1, 1], [1, 0, 0]], [1, 2, -2]),
    (DY, "path4", [[1, 0, 0, 1], [1, 1, -1, -1], [0, -1, 1, 0], [0, 0, 2, 2]], [2, -2, 2, -2]),
    (DY, "scaled2", [[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]], [2, -2]),
]


@pytest.mark.parametrize(
    "spec,name,p_rows,d_diag", _ZERO_DIAGONAL_PINS, ids=[f"{s}-{n}" for s, n, *_ in _ZERO_DIAGONAL_PINS]
)
def test_diagonalize_zero_diagonal_pins(spec, name, p_rows, d_diag):
    p, d = diagonalize(GramForm.from_rows(spec, _ZERO_DIAGONAL_FORMS[name]))
    assert p == InvMatrix.from_rows(spec, p_rows)
    assert d.gram == InvMatrix.diagonal(spec, d_diag)


def test_isotropy_oracle_frozen_witnesses():
    # first witness in the documented order: height, then lex, with each
    # coordinate running 0, 1, -1, 2, -2, ...
    f = GramForm.diagonal(DY, [1, 1, -2, -2])
    assert _coords(isotropy_oracle(f)) == (1, 1, 0, 1)
    g = GramForm.diagonal(Q, [1, -1])
    assert _coords(isotropy_oracle(g)) == (1, 1)
    # prime fields scan residues 0..p-1 lexicographically
    h = GramForm.diagonal(F7, [1, -1])
    assert _coords(isotropy_oracle(h)) == (1, 1)
    k = GramForm.diagonal(F5, [1, 1])
    assert _coords(isotropy_oracle(k)) == (1, 2)


def _coords(witness):
    assert witness is not None
    return tuple(
        e.payload if isinstance(e.payload, int) else int(e.payload) for e in witness
    )


def test_isotropy_oracle_none_cases():
    assert isotropy_oracle(GramForm.diagonal(F5, [1, 2])) is None
    assert isotropy_oracle(GramForm.diagonal(Q, [1, 1])) is None
    assert isotropy_oracle(GramForm.diagonal(Q, [2, 3], epsilon=1), height_bound=8) is None
    with pytest.raises(SpecMismatch):
        isotropy_oracle(GramForm.diagonal(RingSpec.laurent2(), [1]))
    with pytest.raises(IllFormed):
        isotropy_oracle(GramForm.diagonal(Q, [1, -1]), height_bound=0)


def test_diagonal_search_agrees_with_oracle_over_fp():
    # exhaustive on both sides: None iff the oracle proves anisotropy
    rng = random.Random(41)
    for p in (3, 5, 7, 11):
        spec = RingSpec.prime_field(p)
        for n in range(2, 6):
            for _ in range(6):
                diag = [rng.randrange(1, p) for _ in range(n)]
                w = forms._isotropic_on_diagonal(spec, diag, 1)
                assert (w is None) == (isotropy_oracle(GramForm.diagonal(spec, diag)) is None)
                if w is not None:
                    assert any(c % p for c in w)
                    assert sum(d * c * c for d, c in zip(diag, w)) % p == 0


def test_binary_remainder_over_a_large_prime_is_decided_without_search():
    # <1, -ns> with ns a non-residue: Euler's criterion proves it anisotropic
    # at once, where the exhaustive search ran past a minute at this prime
    p = 100000007
    spec = RingSpec.prime_field(p)
    ns = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    start = time.perf_counter()
    dec = witt_decompose(GramForm.diagonal(spec, [1, -ns]))
    assert time.perf_counter() - start < 0.1
    assert dec.hyperbolic_rank == 0 and dec.certified
    assert dec.anisotropic == GramForm.diagonal(spec, [1, -ns])
    # a residue -ab gives the witness from its square root
    assert witt_decompose(GramForm.diagonal(spec, [1, -4])).hyperbolic_rank == 1


def test_ternary_forms_over_a_large_prime_split_from_a_square_root():
    # every form of dimension 3 over F_p is isotropic, and one square root
    # gives its witness however large p is
    spec = RingSpec.prime_field(100000007)
    start = time.perf_counter()
    dec = witt_decompose(GramForm.diagonal(spec, [1, -5, 3]))
    assert time.perf_counter() - start < 0.1
    assert dec.hyperbolic_rank == 1 and dec.anisotropic.dim == 1 and dec.certified
    _check_decomposition(GramForm.diagonal(spec, [1, -5, 3]), dec)


def test_square_roots_mod_p():
    for p in (3, 5, 7, 13, 17, 97, 257, 7681):  # 2-adic orders of p - 1 from 1 to 9
        squares = {x * x % p for x in range(p)}
        for t in range(p):
            r = forms._sqrt_mod(t, p)
            assert (r is not None) == (t in squares)
            assert r is None or r * r % p == t


def test_definite_diagonals_end_the_search_at_once():
    # a definite form over Q or Z[1/2] has no isotropic vector at any
    # height bound, so there is nothing to search
    assert forms._isotropic_on_diagonal(Q, [1] * 8, 40) is None
    assert forms._isotropic_on_diagonal(DY, [-1, -2, -1], 40) is None
    start = time.perf_counter()
    dec = witt_decompose(GramForm.diagonal(Q, [1] * 40))
    assert time.perf_counter() - start < 0.1
    assert dec.hyperbolic_rank == 0 and dec.certified


@pytest.mark.parametrize("spec,entries", [(Q, [1, -2]), (Q, [1, -3]), (Q, [3, -5]), (DY, [1, -2])], ids=str)
def test_anisotropic_binary_remainders_are_decided_without_search(monkeypatch, spec, entries):
    # <a, b> is isotropic exactly when -ab is a square, which 2, 3 and 15
    # are not: the search (which would call _height_shell) does not run
    monkeypatch.setattr(forms, "_height_shell", None)
    dec = witt_decompose(GramForm.diagonal(spec, entries), height_bound=1000)
    assert dec.hyperbolic_rank == 0 and dec.certified
    assert not witt_class(GramForm.diagonal(spec, entries)).is_zero


def test_isotropy_searches_refuse_past_their_budget(monkeypatch):
    # x^2 + y^2 + z^2 = 7 w^2 has no rational zero, and the form is
    # indefinite, so its search runs to the bound; the least zero of
    # x^2 = 2600^2 y^2 lies above the bounds tried
    monkeypatch.setattr(forms, "_SEARCH_BUDGET", 5000)
    with pytest.raises(BudgetExceeded, match="passed 5000 vectors at height 50"):
        forms._isotropic_on_diagonal(Q, [1, 1, 1, -7], 60)
    assert forms._isotropic_on_diagonal(Q, [1, 1, 1, -7], 49) is None  # 2 * 49^2 + 4 * 49 = 4998 vectors
    with pytest.raises(BudgetExceeded, match="passed 5000 vectors at height 2501"):
        forms._isotropic_on_diagonal(Q, [1, -2600 * 2600], 3000)
    assert forms._isotropic_on_diagonal(Q, [1, -2600 * 2600], 2500) is None
    # x^2 = 3 y^2 has no rational zero: decided at once, at any bound
    assert forms._isotropic_on_diagonal(Q, [1, -3], 3000) is None
    # within the budget the witness is the one found without it
    want = forms._isotropic_on_diagonal(Q, [2, 3, -5, 7], 4)
    monkeypatch.setattr(forms, "_SEARCH_BUDGET", 10)
    assert forms._isotropic_on_diagonal(Q, [2, 3, -5, 7], 4) == want
    # the oracle counts its vectors: <1, 1> over F_7 is anisotropic, 49 of them
    with pytest.raises(BudgetExceeded, match="after 10 vectors"):
        isotropy_oracle(GramForm.diagonal(F7, [1, 1]))


def test_diagonal_search_finds_least_height_over_q_and_dyadic():
    rng = random.Random(43)
    entries = {
        Q: [1, -1, 2, -2, 3, -3, 5, -7, Fraction(1, 2), Fraction(-3, 4)],
        DY: [1, -1, 2, -2, 4, -4, Fraction(1, 2), Fraction(-1, 2)],
    }
    for spec, pool in entries.items():
        for n in range(2, 6):
            for bound in range(1, 5):
                for _ in range(3):
                    diag = [Fraction(rng.choice(pool)) for _ in range(n)]
                    w = forms._isotropic_on_diagonal(spec, diag, bound)
                    o = isotropy_oracle(GramForm.diagonal(spec, diag), height_bound=bound)
                    assert (w is None) == (o is None), (diag, bound)
                    if w is not None:
                        assert sum(d * c * c for d, c in zip(diag, w)) == 0
                        assert max(map(abs, w)) == max(abs(c) for c in _coords(o))


def test_dyadic_unit_vector_fallback(monkeypatch):
    # no 2x2 principal block of this form has a unit determinant, so the
    # dyadic pivot falls back to the bounded unit-vector search
    calls = []
    search = forms._unit_vector_search

    def spy(grid, bound):
        calls.append(len(grid))
        return search(grid, bound)

    monkeypatch.setattr(forms, "_unit_vector_search", spy)
    f = GramForm.from_rows(
        DY,
        [[47, -10, 33, -17], [-10, 9, -10, 6], [33, -10, 25, -13], [-17, 6, -13, 7]],
    )
    p, d = diagonalize(f)
    assert calls == [4]
    assert d.is_diagonal()
    assert p.conj_transpose() * f.gram * p == d.gram


def test_dyadic_unit_vector_search_refuses_past_its_budget(monkeypatch):
    # the fallback form of test_dyadic_unit_vector_fallback: its search is
    # held to _SEARCH_BUDGET vectors like every other search
    rows = [[47, -10, 33, -17], [-10, 9, -10, 6], [33, -10, 25, -13], [-17, 6, -13, 7]]
    _, d = diagonalize(GramForm.from_rows(DY, rows))
    assert d.diagonal_entries() == (1, 1, 2, 2)
    monkeypatch.setattr(forms, "_SEARCH_BUDGET", 10)
    with pytest.raises(OracleInconclusive, match="after 10 vectors in a 4-dimensional block .* at height 1"):
        diagonalize(GramForm.from_rows(DY, rows))



# The last 2x2 block of job 38 of the witt benchmark's dense-dyadic family
# at seed 4, [[85, 2], [2, 0]] over 4, with its coordinates swapped: its
# first unit value, y (4 x + 85 y) at (-21, 1), lies past _PIVOT_BOUND (18).
_LAGRANGE_PIVOT = [[0, 2], [2, 85]]
# That job itself, whose whole trailing block now shows a unit value.
_SHEARED_PIVOT = [[-9, -11, 6, -17], [-11, -4, 2, -17], [6, 2, -1, 9], [-17, -17, 9, -32]]
# Job 37 of the same family at seed 36: the search of its whole trailing
# block finds the unit value at (1, 2, -1), with no Lagrange step.
_REDUCED_PIVOT = [[-78, 25, -132, -330], [25, 8, 38, 97], [-132, 38, -223, -558], [-330, 97, -558, -1396]]
# As a form of its own, [[-372, -934], [-934, -2345]] needs two Lagrange
# steps, with a search after each, before [[-89, 4], [4, 0]] shows the
# unit value -1 at (1, 11).
_TWO_STEP_PIVOT = [[-372, -934], [-934, -2345]]


def _spied_searches(monkeypatch) -> list:
    found = []
    search = forms._unit_vector_search

    def spy(grid, bound):
        v = search(grid, bound)
        found.append((grid, v))
        return v

    monkeypatch.setattr(forms, "_unit_vector_search", spy)
    return found


def test_a_lagrange_step_finds_the_unit_past_the_pivot_bound(monkeypatch):
    found = _spied_searches(monkeypatch)
    f = GramForm.from_rows(DY, _LAGRANGE_PIVOT)
    p, d = diagonalize(f)
    # the block's own search finds nothing; e_1 -= 21 e_0 gives it the value 1
    assert found == [([[0, 2], [2, 85]], None), ([[0, 2], [2, 1]], (0, 1))]
    assert p.conj_transpose() * f.gram * p == d.gram
    assert d.diagonal_entries() == (1, -1)
    assert witt_class(f).is_zero
    dec = witt_decompose(f)
    assert (dec.hyperbolic_rank, dec.certified) == (1, True)
    _check_decomposition(f, dec)
    # the benchmark job the block came from
    found.clear()
    f = GramForm.from_rows(DY, _SHEARED_PIVOT)
    p, d = diagonalize(f)
    assert found == [([[85, 2, 119], [2, 0, 2], [119, 2, 161]], (1, 0, -1)), ([[-238, 2], [2, 0]], (2, -9))]
    assert p.conj_transpose() * f.gram * p == d.gram
    assert d.diagonal_entries() == (-1, 2, -1, 1)
    assert witt_class(f) == witt_class(GramForm.diagonal(DY, [-1, 2, 1, -1]))
    dec = witt_decompose(f)
    assert (dec.hyperbolic_rank, dec.certified) == (1, True)
    _check_decomposition(f, dec)


def test_lagrange_steps_repeat_until_a_unit_is_found(monkeypatch):
    found = _spied_searches(monkeypatch)
    cases = [
        (
            _TWO_STEP_PIVOT,
            [
                ([[-372, -934], [-934, -2345]], None),
                ([[-372, 182], [182, -89]], None),
                ([[-89, 4], [4, 0]], (1, 11)),
            ],
            0,
        ),
        (_REDUCED_PIVOT, [([[-1249, -2006, -5065], [-2006, -3228, -8150], [-5065, -8150, -20577]], (1, 2, -1))], 1),
    ]
    for rows, searches, parity in cases:
        found.clear()
        f = GramForm.from_rows(DY, rows)
        p, d = diagonalize(f)
        assert found == searches
        assert p.conj_transpose() * f.gram * p == d.gram
        cls = witt_class(f)
        assert (cls.signature, cls.dyadic_disc_parity) == (0, parity)
        dec = witt_decompose(f)
        assert dec.hyperbolic_rank == 1
        _check_decomposition(f, dec)


def test_lagrange_steps_stop_at_a_reduced_block(monkeypatch):
    # that block as a form of its own; with no vector to search, the steps
    # go on until |2u| <= |aa| <= |bb| and the block is refused
    found = _spied_searches(monkeypatch)
    monkeypatch.setattr(forms, "_PIVOT_BOUND", 0)
    with pytest.raises(OracleInconclusive, match="height <= 0"):
        diagonalize(GramForm.from_rows(DY, _TWO_STEP_PIVOT))
    assert [grid for grid, _ in found] == [
        [[-372, -934], [-934, -2345]],
        [[-372, 182], [182, -89]],
        [[-89, 4], [4, 0]],
        [[0, 4], [4, -1]],
    ]


def test_witness_is_isotropic_property():
    rng = random.Random(13)
    for _ in range(30):
        f = _random_symmetric(Q, rng.randrange(2, 5), rng)
        w = isotropy_oracle(f)
        if w is not None:
            assert f.evaluate(w).is_zero()


def test_witt_decompose_certificate():
    rng = random.Random(17)
    for spec in (Q, F5, F7, DY):
        for _ in range(10):
            f = _random_symmetric(spec, rng.randrange(1, 5), rng)
            dec = witt_decompose(f)
            _check_decomposition(f, dec)


def _check_decomposition(f: GramForm, dec: WittDecomposition) -> None:
    spec = f.ring
    r = dec.hyperbolic_rank
    blocks = [hyperbolic(1, f.epsilon, spec).gram] * r
    if dec.anisotropic.dim:
        blocks.append(dec.anisotropic.gram)
    expected = (
        InvMatrix.block_diag(blocks) if blocks else InvMatrix.zeros(spec, 0, 0)
    )
    p = dec.change_of_basis
    assert p.conj_transpose() * f.gram * p == expected
    assert 2 * r + dec.anisotropic.dim == f.dim


@pytest.mark.parametrize("tag", ["fp:5", "fp:7", "q", "dyadic"])
def test_congruence_check_agrees_with_the_product_of_matrices(tag):
    # forms._congruent_to decides B* (G/den) B = T/dT on one triangle of
    # integers, called as forms calls it, with X = B^T; the oracle
    # multiplies the InvMatrix products out.  T is the true product, then
    # with one entry changed above, on or below the diagonal, changed at a
    # pair (i, j), (j, i) so that it stays eps-symmetric, with its lower
    # triangle flipped in sign (not symmetric, the upper triangle as it was)
    # and as 3T over 3dT (over F_p too); last, one entry of B is changed
    spec = RingSpec.from_tag(tag)
    rng = random.Random(tag)
    p = spec.p
    dens = (1,) if p else (1, 2, 4) if spec.kind == "dyadic" else (1, 2, 3, 6)

    def entry():
        return rng.randrange(p) if p else Fraction(rng.randrange(-6, 7), rng.choice(dens))

    def bump(t, i, j, c=1):
        t = [row[:] for row in t]
        t[i][j] = (t[i][j] + c) % p if p else t[i][j] + c
        return t

    seen = {True: 0, False: 0}
    for eps in (1, -1):
        for n in range(1, 9):
            for _ in range(3):
                rows = [[None] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = 0 if eps == -1 and i == j else entry()
                        rows[j][i] = rows[i][j] if eps == 1 else -rows[i][j]
                gm = InvMatrix.from_rows(spec, rows)
                bm = InvMatrix.from_rows(spec, [[entry() for _ in range(n)] for _ in range(n)])
                (g,), den = gm._slice_form()
                (b,), db = bm._slice_form()
                (t,), dt = (bm.conj_transpose() * gm * bm)._slice_form()
                i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                k = rng.randrange(n)
                flipped = [[x if c >= r else -x % p if p else -x for c, x in enumerate(row)] for r, row in enumerate(t)]
                cases = [(b, db, t, dt), (b, db, bump(t, j, i), dt), (b, db, bump(t, k, k), dt),
                         (b, db, bump(t, i, j), dt), (b, db, bump(bump(t, i, j), j, i, eps), dt),
                         (b, db, flipped, dt), (b, db, [[3 * x % p if p else 3 * x for x in row] for row in t], 3 * dt),
                         (bump(b, k, i), db, t, dt)]
                for bb, dbb, tt, dtt in cases:
                    bmat = InvMatrix._from_slices(spec, [bb], dbb, n, n)
                    tmat = _canonical(spec, [tt], dtt, n, n)
                    oracle = bmat.conj_transpose() * gm * bmat == tmat
                    xs = [list(map(list, zip(*bb)))]
                    assert forms._congruent_to(p, eps, xs, dbb, [tt], dtt, [g], den) == oracle, (eps, g, bb, tt)
                    seen[oracle] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("spec", [F7, Q, DY], ids=str)
def test_a_wrong_basis_fails_each_certificate(monkeypatch, spec):
    # one basis entry moved after the congruence steps, which leaves the
    # Gram grid as it was: only the certificate can see it
    def bump(b):
        b = [row[:] for row in b]
        b[0][0] = (b[0][0] + 1) % spec.p if spec.p else b[0][0] + 1
        return b

    sym = _sheared(orth_sum(hyperbolic(2, 1, spec), GramForm.diagonal(spec, [1, 1])), random.Random(5), 6)
    skew = _sheared(hyperbolic(2, -1, spec), random.Random(6), 6)
    check = forms._congruent_to

    def wrong_basis(mod, eps, xs, *rest):  # X = P^T, one slice
        return check(mod, eps, [bump(xs[0])], *rest)

    with monkeypatch.context() as m:
        m.setattr(forms, "_congruent_to", wrong_basis)
        with pytest.raises(IdentityViolated, match=r"P\*\.G\.P = D"):
            diagonalize(sym)
        assert sym._diag is None  # a refusal is not kept
    diagonalize(sym)
    with monkeypatch.context() as m:
        m.setattr(forms, "_congruent_to", wrong_basis)
        for f in (sym, skew):
            with pytest.raises(IdentityViolated, match="re-multiply"):
                witt_decompose(f)
    assert witt_decompose(sym).hyperbolic_rank == witt_decompose(skew).hyperbolic_rank == 2


def _assert_canonical_grid(m: InvMatrix) -> None:
    again = InvMatrix.from_rows(m.spec, m.cells)
    assert again.shape == m.shape
    assert again.cells == m.cells
    # Fraction(1) == 1, so compare the payload types as well
    assert [list(map(type, row)) for row in again.cells] == [list(map(type, row)) for row in m.cells]


def test_diagonalize_and_decompose_build_canonical_grids():
    # the results are built from the congruence grids directly, without
    # from_rows; canonicalizing them again must change nothing
    rng = random.Random(23)
    for spec in (Q, F5, F7, DY):
        for n in range(5):
            for _ in range(4):
                f = _random_symmetric(spec, n, rng)
                p, d = diagonalize(f)
                dec = witt_decompose(f)
                for m in (p, d.gram, dec.anisotropic.gram, dec.change_of_basis):
                    _assert_canonical_grid(m)
            if n in (2, 4):
                dec = witt_decompose(_random_skew(spec, n, rng))
                _assert_canonical_grid(dec.anisotropic.gram)
                _assert_canonical_grid(dec.change_of_basis)


def test_witt_decompose_prime_field_is_certified():
    rng = random.Random(19)
    for _ in range(10):
        f = _random_symmetric(F7, rng.randrange(1, 6), rng)
        dec = witt_decompose(f)
        assert dec.certified
        # leftover must really be anisotropic: exhaustive recheck
        if dec.anisotropic.dim:
            assert isotropy_oracle(dec.anisotropic) is None


def test_witt_decompose_uncertified_mixed_signature():
    # x^2 + y^2 + z^2 = 7 w^2 has no rational solution, but the bounded
    # search cannot prove that, so the result is honest about it
    f = GramForm.diagonal(Q, [1, 1, 1, -7])
    dec = witt_decompose(f)
    assert dec.hyperbolic_rank == 0
    assert not dec.certified
    with pytest.raises(OracleInconclusive):
        witt_decompose(f, require_certified=True)


def _sheared(f: GramForm, rng: random.Random, shears: int) -> GramForm:
    g = f.gram
    for _ in range(shears):
        s = _shear(f.ring, f.dim, rng)
        g = s.conj_transpose() * g * s
    return GramForm(g, f.epsilon)


@pytest.mark.parametrize("spec", [F7, Q, DY], ids=str)
def test_witt_decompose_diagonalizes_once(monkeypatch, spec):
    # 5 planes and an anisotropic binary block, moved by 12 shears: one
    # 12 x 12 diagonalization, then per plane at most the |S| - 2 other
    # coordinates of its witness's support S are diagonalized again
    block = [1, -3] if spec == F7 else [1, 1]
    f = _sheared(orth_sum(hyperbolic(5, 1, spec), GramForm.diagonal(spec, block)), random.Random(7), 12)
    events = []

    def spy(fn, kind, rows):
        def wrapped(*args):
            out = fn(*args)
            events.append((kind, len(rows(args)) if rows else sum(1 for c in out or () if c)))
            return out
        return wrapped

    monkeypatch.setattr(forms, "_diagonal", spy(forms._diagonal, "diag", lambda args: args[1]))
    monkeypatch.setattr(forms, "_isotropic_on_diagonal", spy(forms._isotropic_on_diagonal, "search", None))
    dec = witt_decompose(f)
    assert dec.hyperbolic_rank == 5 and dec.certified
    assert events[0] == ("diag", 12) and [e for e in events if e[0] == "diag"].count(("diag", 12)) == 1
    support = 0
    for kind, size in events[1:]:
        if kind == "search":
            support = size
        else:
            assert size <= support - 2 and (size <= 1 or spec != F7)
    assert [size for kind, size in events if kind == "search"].count(0) == 1  # the last search


@pytest.mark.parametrize("spec", [F7, Q, DY], ids=str)
def test_class_equivalence_and_decomposition_share_one_diagonalization(monkeypatch, spec):
    # one full-size diagonalization per form, and one call of the congruence
    # kernel (matrices._congruent_to, as forms holds it) with its Gram grid
    # for the diagonalization's certificate (f, g) plus the decomposition's
    # own (f), wherever the class of f is asked again
    block = [1, -3] if spec == F7 else [1, 1]
    f = _sheared(orth_sum(hyperbolic(4, 1, spec), GramForm.diagonal(spec, block)), random.Random(11), 10)
    g = _sheared(GramForm.diagonal(spec, [1, 2, -1]), random.Random(12), 3)
    rows, products = [], {"f": 0, "g": 0}

    def spy(fn, grid):
        def wrapped(*args):
            rows.append(len(grid(args)))
            return fn(*args)
        return wrapped

    congruent_to = forms._congruent_to

    def counting_check(*args):
        for name, form in (("f", f), ("g", g)):
            products[name] += args[6][0] is form.gram._slice_form()[0][0]  # G, one slice
        return congruent_to(*args)

    monkeypatch.setattr(forms, "_diagonal", spy(forms._diagonal, lambda args: args[1]))
    monkeypatch.setattr(forms, "_congruent_to", counting_check)
    cls = witt_class(f)
    assert rows == [10] and products == {"f": 1, "g": 0}
    assert witt_equiv(f, g) == (cls == witt_class(g))
    assert rows == [10, 3] and products == {"f": 1, "g": 1}
    dec = witt_decompose(f)
    assert dec.hyperbolic_rank == 4 and dec.certified
    assert rows.count(10) == 1 and max(rows[2:], default=0) < 10
    assert products == {"f": 2, "g": 1}
    assert witt_class(f) is cls and diagonalize(f) is diagonalize(f)


def test_one_pivot_bound_refuses_every_caller_alike(monkeypatch):
    # every dyadic pivot search stops at _PIVOT_BOUND, whatever the height
    # bound of the isotropy search: a form diagonalize refuses is refused by
    # witt_class and witt_decompose too, with the same error, every time
    # (a refusal is not kept)
    monkeypatch.setattr(forms, "_PIVOT_BOUND", 0)
    f = GramForm.from_rows(
        DY,
        [[47, -10, 33, -17], [-10, 9, -10, 6], [33, -10, 25, -13], [-17, 6, -13, 7]],
    )
    calls = [diagonalize, witt_class, lambda f: witt_decompose(f, height_bound=1), witt_decompose]
    messages = []
    for _ in range(2):
        for call in calls:
            with pytest.raises(OracleInconclusive, match="height <= 0") as exc:
                call(f)
            messages.append(str(exc.value))
    assert len(set(messages)) == 1


# No diagonal entry and no 2 x 2 principal minor is a unit of Z[1/2], and the
# first unit-valued vector, (15, -6, -2), has height 15: above 12, within
# _PIVOT_BOUND (18), which diagonalize shares with witt_decompose.  Its
# orthogonal complement again has no unit pivot, and a vector of height 11.
_HEIGHT_15_PIVOT = [[-22, -48, -18], [-48, -130, 38], [-18, 38, -251]]


def test_diagonalize_answers_a_pivot_of_height_15(monkeypatch):
    heights = []
    search = forms._unit_vector_search

    def spy(grid, bound):
        v = search(grid, bound)
        heights.append(max(map(abs, v)))
        return v

    monkeypatch.setattr(forms, "_unit_vector_search", spy)
    f = GramForm.from_rows(DY, _HEIGHT_15_PIVOT)
    p, d = diagonalize(f)
    assert heights == [15, 11]
    assert p.conj_transpose() * f.gram * p == d.gram
    assert d.diagonal_entries() == (-2, -1, -2)
    assert witt_class(f).signature == -3
    dec = witt_decompose(f, height_bound=1)
    assert (dec.hyperbolic_rank, dec.certified) == (0, True)
    _check_decomposition(f, dec)


def _split_form(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """(G, cols): G = 2^e T^T D T for an integer T of determinant +-1 and D
    a diagonal of units +-1, +-2 and planes [[0, c], [c, 0]], c in {1, 2};
    cols are the columns of T^-1 on one unit entry or one plane of D, so
    they span a unimodular piece of G over Z[1/2]."""
    pieces, size = [], rng.randint(2, 6)
    while sum(map(len, pieces)) < size:
        k = sum(map(len, pieces))
        pieces.append([k] if rng.random() < 0.5 else [k, k + 1])
    n = sum(map(len, pieces))
    dmat = [[0] * n for _ in range(n)]
    for piece in pieces:
        if len(piece) == 1:
            dmat[piece[0]][piece[0]] = rng.choice((1, -1, 2, -2))
        else:
            k = piece[0]
            dmat[k][k + 1] = dmat[k + 1][k] = rng.choice((1, 2))
    t, tinv = [[int(i == j) for j in range(n)] for i in range(n)], [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            for row in t:
                row[i], row[j] = row[j], row[i]
            tinv[i], tinv[j] = tinv[j], tinv[i]
        else:
            # column j += k column i, and row i -= k row j of the inverse
            k = rng.choice((1, -1, 2, -2))
            for row in t:
                row[j] += k * row[i]
            tinv[i] = [x - k * y for x, y in zip(tinv[i], tinv[j])]
    scale = 2 ** rng.randint(0, 3)
    g = [[scale * x for x in row] for row in matmul_int(matmul_int(list(map(list, zip(*t))), dmat), t)]
    return g, [[row[k] for row in tinv] for k in rng.choice(pieces)]


def test_a_split_keeps_its_columns_and_adds_their_orthogonal_complement():
    rng = random.Random(29)
    for _ in range(300):
        g, cols = _split_form(rng)
        n, k = len(g), len(cols)
        t = forms._with_complement(g, cols)
        assert [row[:k] for row in t] == columns_to_matrix(cols, n)
        rest = [[row[j] for row in t] for j in range(k, n)]
        assert not any(map(any, matmul_int(matmul_int(cols, g), list(map(list, zip(*rest))))))
        assert forms._is_power_of_two(int_det(t))
    # <1, 1, 1> is not split by (1, 1, 1), of value 3: the determinant is 3
    with pytest.raises(IdentityViolated, match="determinant 3"):
        forms._with_complement([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1]])


def test_dyadic_splits_take_no_smith_form_and_no_inverse(monkeypatch):
    calls = []
    for name in ("smith_normal_form", "int_inverse_unimodular"):
        for modname, mod in list(sys.modules.items()):
            real = vars(mod).get(name) if modname.split(".")[0] == "wittkit" else None
            if real is not None:
                monkeypatch.setattr(mod, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    splits = []
    complement = forms._with_complement
    monkeypatch.setattr(forms, "_with_complement", lambda *a: splits.append(len(a[1])) or complement(*a))
    grids = [_LAGRANGE_PIVOT, _SHEARED_PIVOT, _REDUCED_PIVOT, _HEIGHT_15_PIVOT,
             [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 2], [1, 0, 2, 0]]]
    rng = random.Random(31)
    grids += [_random_symmetric(DY, rng.randrange(2, 6), rng).gram.cells for _ in range(20)]
    for rows in grids:
        f = GramForm.from_rows(DY, rows)
        diagonalize(f)
        _check_decomposition(f, witt_decompose(f))
    # a skew form whose first row has no unit: the pair comes from a Bezout vector
    skew = GramForm.from_rows(DY, [[0, 3, 5, 3], [-3, 0, 9, 7], [-5, -9, 0, 3], [-3, -7, -3, 0]], -1)
    _check_decomposition(skew, witt_decompose(skew))
    assert calls == []
    assert {1, 2} <= set(splits)


@pytest.mark.parametrize(
    "tag", ["fp:7", "q", "dyadic", "laurent2", "truncnil:q:3", "truncnil:fp:7:2", "truncnil:dyadic:2"]
)
def test_is_diagonal_reads_sliced_and_cell_grams_alike(tag):
    # products and diagonalize leave a gram as integer slices, with its
    # cells built on first use; a gram made from cells must answer the
    # same, a truncated one whose constant slice alone is diagonal too
    spec = RingSpec.from_tag(tag)
    if spec.kind == "laurent2":
        c = RingElem.monomial(1, 1)
    elif spec.kind == "truncnil":
        c = nil_generator(spec)
    else:
        c = RingElem.from_fraction(spec, 3)
    d = GramForm.diagonal(spec, [1, 2, -1]).gram
    grams = [d]
    for rows in ([[1, c, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, c], [0, 0, 1]]):
        t = InvMatrix.from_rows(spec, rows)
        grams.append(t.conj_transpose() * d * t)
    if spec.kind in ("fp", "q", "dyadic"):
        grams.append(diagonalize(GramForm(grams[-1]))[1].gram)

    def answers(g):
        f = GramForm(g)
        return f.is_diagonal(), f.diagonal_entries() if f.is_diagonal() else None, repr(f)

    got = []
    for g in grams:
        cells = InvMatrix(spec, g.cells, g.nrows, g.ncols)
        if spec.kind == "laurent2":
            got.append(answers(cells))
            continue
        sliced = InvMatrix._from_slices(spec, *g._slice_form(), g.nrows, g.ncols)
        got.append(answers(sliced))
        assert got[-1] == answers(cells)
    assert [diag for diag, _, _ in got] == [True, False, False, True][: len(grams)]
    assert got[0][1] == tuple(RingElem.from_fraction(spec, v) for v in (1, 2, -1))


@pytest.mark.parametrize("spec", [F7, Q, DY], ids=str)
def test_skew_planes_take_no_whole_block_congruence(monkeypatch, spec):
    f = _sheared(hyperbolic(6, -1, spec), random.Random(7), 12)
    sizes = []
    apply = forms._Congruence.apply

    def spy(ws, t, den, off=0):
        sizes.append(len(t))
        return apply(ws, t, den, off)

    monkeypatch.setattr(forms._Congruence, "apply", spy)
    dec = witt_decompose(f)
    assert dec.hyperbolic_rank == 6
    assert max(sizes, default=0) < 12


def test_skew_forms_split_completely():
    f = GramForm.from_rows(F7, [[0, 3], [-3, 0]], epsilon=-1)
    dec = witt_decompose(f)
    assert dec.hyperbolic_rank == 1
    assert dec.anisotropic.dim == 0
    assert dec.certified


def test_hyperbolic_and_interchange():
    h = hyperbolic(2, 1, Q)
    assert h.dim == 4
    assert h.gram == h.gram.conj_transpose()
    hs = hyperbolic(1, -1, F5)
    assert hs.gram.conj_transpose() == -hs.gram
    sigma = interchange_isometry(2, 1, Q)
    assert sigma * sigma == InvMatrix.identity(Q, 4)
    tau = interchange_isometry(1, -1, Q)
    assert tau * tau == InvMatrix.identity(Q, 2).scale(-1)
    with pytest.raises(IllFormed):
        hyperbolic(0, 1, Q)


@pytest.mark.parametrize("bad", [2.5, "3", True, 0], ids=repr)
def test_integer_parameters_refuse_what_is_not_a_positive_integer(bad):
    # a float, a str and a bool (True would read as 1) are not integers, and
    # 0 is not positive; each is refused before any work, over F_p too
    calls = [lambda: hyperbolic(bad, 1, Q), lambda: interchange_isometry(bad, 1, Q)]
    for spec in (Q, F5):
        f = GramForm.diagonal(spec, [1, -2, 3])
        calls += [lambda f=f: witt_decompose(f, height_bound=bad), lambda f=f: isotropy_oracle(f, height_bound=bad)]
    for call in calls:
        with pytest.raises(IllFormed, match="positive integer"):
            call()
    for eps in (True, 1.0, "1"):
        for make in (hyperbolic, interchange_isometry):
            with pytest.raises(IllFormed, match=r"\+1 or -1"):
                make(1, eps, Q)


@pytest.mark.parametrize("bad", ["no", 1, 0, None], ids=repr)
def test_require_certified_refuses_what_is_not_a_bool(bad):
    # "no" is truthy and 0 falsy, but neither is a bool; over F_p as over Q
    for spec in (Q, F5):
        with pytest.raises(IllFormed, match="True or False"):
            witt_decompose(GramForm.diagonal(spec, [1, -2, 3]), require_certified=bad)


def test_orth_sum_and_tensor():
    f = GramForm.diagonal(Q, [1, -1])
    g = GramForm.diagonal(Q, [2])
    s = orth_sum(f, g)
    assert s.dim == 3
    assert s.diagonal_entries()[2] == RingElem.from_fraction(Q, 2)
    t = tensor(f, g)
    assert t.diagonal_entries() == tuple(
        RingElem.from_fraction(Q, v) for v in (2, -2)
    )
    with pytest.raises(SpecMismatch):
        orth_sum(f, GramForm.diagonal(F5, [1]))
    skew = GramForm.from_rows(Q, [[0, 1], [-1, 0]], epsilon=-1)
    with pytest.raises(SpecMismatch):
        orth_sum(f, skew)
    with pytest.raises(SpecMismatch):
        tensor(f, skew)


def test_symplectic_basis():
    rng = random.Random(23)
    for spec in (F7, Q):
        for n in (2, 4, 6):
            for _ in range(4):
                f = _random_skew(spec, n, rng)
                p = symplectic_basis(f)
                got = p.conj_transpose() * f.gram * p
                plane = hyperbolic(1, -1, spec).gram
                assert got == InvMatrix.block_diag([plane] * (n // 2))
    with pytest.raises(SpecMismatch):
        symplectic_basis(GramForm.diagonal(Q, [1]))
    with pytest.raises(SpecMismatch):
        symplectic_basis(
            GramForm.from_rows(DY, [[0, 1], [-1, 0]], epsilon=-1)
        )


def _random_skew(spec: RingSpec, n: int, rng: random.Random) -> GramForm:
    return _sheared(hyperbolic(n // 2, -1, spec), rng, 4)


def test_form_json_roundtrip():
    f = GramForm.from_rows(Q, [[1, 2], [2, 1]])
    assert GramForm.from_json(f.to_json()) == f
    g = GramForm.diagonal(DY, [1, -2], epsilon=1)
    back = GramForm.from_json(g.to_json())
    assert back == g and back.epsilon == 1
    skew = GramForm.from_rows(F5, [[0, 1], [-1, 0]], epsilon=-1)
    assert GramForm.from_json(skew.to_json()).epsilon == -1
    with pytest.raises(IllFormed):
        GramForm.from_json({"ring": {"ring": "q"}, "epsilon": 1})


def test_decomposition_invariant_under_congruence():
    rng = random.Random(29)
    for _ in range(12):
        f = _random_symmetric(Q, 4, rng)
        dec = witt_decompose(f)
        s = _shear(Q, 4, rng)
        g = GramForm(s.conj_transpose() * f.gram * s)
        dec2 = witt_decompose(g)
        if dec.certified and dec2.certified:
            assert dec.hyperbolic_rank == dec2.hyperbolic_rank
            assert dec.anisotropic.dim == dec2.anisotropic.dim



def _accepts(gram: InvMatrix, eps: int) -> bool:
    try:
        GramForm(gram, eps)
    except IllFormed as exc:
        assert "epsilon-symmetric" in str(exc)
        return False
    except DegenerateForm:
        pass
    return True


def _by_transpose(gram: InvMatrix, eps: int) -> bool:
    return gram.conj_transpose() == (gram if eps == 1 else -gram)


@pytest.mark.parametrize("tag", ["fp:3", "fp:7", "q", "dyadic", "laurent2", "truncnil:q:2", "truncnil:fp:5:3"])
def test_symmetry_check_agrees_with_the_conjugate_transpose(monkeypatch, tag):
    # over fp, q, dyadic and truncnil over them GramForm compares the
    # numerators of every slice in place (matrices._is_symmetric); over
    # laurent2 bases it compares the conjugate transpose
    spec = RingSpec.from_tag(tag)
    rng = random.Random(tag)
    kind = spec.base.kind if spec.kind == "truncnil" else spec.kind
    p = (spec.base if spec.kind == "truncnil" else spec).p
    ops = spec.ops
    stars = []
    real = InvMatrix.conj_transpose
    monkeypatch.setattr(InvMatrix, "conj_transpose", lambda m: stars.append(m) or real(m))

    def entry():
        if kind == "laurent2":
            return {(rng.randrange(-2, 3), rng.randrange(-1, 2)): Fraction(rng.randrange(-5, 6), rng.choice((1, 2)))}
        if kind == "fp":
            return rng.randrange(p)
        return Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 4, 8) if kind == "dyadic" else (1, 2, 3, 6)))

    def cooked():
        raw = entry() if spec.kind != "truncnil" else [entry() for _ in range(spec.k)]
        return canon_payload(spec, raw)

    seen = {True: 0, False: 0}
    for n in range(1, 6):
        for eps in (1, -1):
            for _ in range(8):
                grid = [[None] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        a = cooked()
                        star = ops.involute(a)
                        if i == j and (eps == 1 or rng.random() < 0.7):
                            a = ops.add(a, star if eps == 1 else ops.neg(star))  # a* = eps a
                            star = ops.involute(a)
                        grid[i][j], grid[j][i] = a, (star if eps == 1 else ops.neg(star))
                variants = [grid]
                i, j = rng.randrange(n), rng.randrange(n)
                bent = [row[:] for row in grid]
                bent[i][j] = ops.add(bent[i][j], spec.one)  # not symmetric unless i == j and eps == 1
                variants.append(bent)
                if kind in ("q", "dyadic") and spec.kind != "truncnil" and i != j and grid[i][j]:
                    # the same numerator over another denominator
                    other = [row[:] for row in grid]
                    c = other[i][j]
                    other[i][j] = Fraction(c.numerator, 2 * c.denominator)
                    variants.append(other)
                for g in variants:
                    gram = InvMatrix(spec, tuple(map(tuple, g)), n, n)
                    before = len(stars)
                    accepted = _accepts(gram, eps)
                    in_place = len(stars) == before
                    assert accepted == _by_transpose(gram, eps), (g, eps)
                    assert in_place == (kind != "laurent2")
                    seen[accepted] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_skew_grid_with_a_nonzero_diagonal_is_refused(p):
    spec = RingSpec.prime_field(p)
    assert _accepts(InvMatrix.from_rows(spec, [[0, 1], [p - 1, 0]]), -1)
    for d in range(1, p):
        assert not _accepts(InvMatrix.from_rows(spec, [[d, 1], [p - 1, 0]]), -1)
        assert not _accepts(InvMatrix.from_rows(spec, [[0, 1], [p - 1, d]]), -1)
    assert not _accepts(InvMatrix.from_rows(spec, [[0, 1], [1, 0]]), -1)
    assert not _accepts(InvMatrix.from_rows(spec, [[0, 1], [p - 1, 0]]), 1)


def test_q_and_dyadic_numerators_are_compared_over_one_denominator():
    for spec in (Q, DY):
        # 1/2 and 1/4 share a numerator but not a value
        assert not _accepts(InvMatrix.from_rows(spec, [[1, Fraction(1, 2)], [Fraction(1, 4), 1]]), 1)
        assert _accepts(InvMatrix.from_rows(spec, [[1, Fraction(1, 2)], [Fraction(2, 4), 1]]), 1)
        assert not _accepts(InvMatrix.from_rows(spec, [[0, Fraction(1, 2)], [Fraction(1, 4), 0]]), -1)
        assert _accepts(InvMatrix.from_rows(spec, [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]), -1)
        assert not _accepts(InvMatrix.from_rows(spec, [[Fraction(1, 8), Fraction(1, 2)], [Fraction(-1, 2), 0]]), -1)


def test_an_integer_form_builds_one_fraction_per_determinant(monkeypatch):
    # a 12-dimensional form over Q from int rows, like the witt benchmark's
    # sym-q jobs: H^5 + <1, 1> moved by 12 shears of +-1, and a partner.
    # Its rows enter as slices; until cells are read the only Fraction
    # built is the value of each determinant taken
    rng = random.Random(12)

    def sheared(rows):
        n = len(rows)
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            rows = [row[:j] + [row[j] + c * row[i]] + row[j + 1 :] for row in rows]  # column j += c column i
            rows[j] = [x + c * y for x, y in zip(rows[j], rows[i])]  # row j += c row i
        return rows

    base = hyperbolic(5, 1, Q).gram.cells
    rows = sheared([[int(c) for c in row] + [0, 0] for row in base] + [[0] * 10 + [1, 0], [0] * 11 + [1]])
    partner_rows = sheared([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    built, dets = [], []
    real_new, real_det = Fraction.__new__, InvMatrix._det_payload

    def spy_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(InvMatrix, "_det_payload", lambda m: dets.append(m.nrows) or real_det(m))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy_new))
    f = GramForm(InvMatrix.from_rows(Q, rows))
    g = GramForm(InvMatrix.from_rows(Q, partner_rows))
    witt_class(f)
    witt_equiv(f, g)
    dec = witt_decompose(f)
    monkeypatch.undo()
    assert f.gram._cells is None and g.gram._cells is None
    assert 0 < len(built) <= len(dets)
    assert dets.count(12) >= 1 and dec.hyperbolic_rank == 5
    _check_decomposition(f, dec)
