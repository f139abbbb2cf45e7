"""``diagonalize`` and ``witt_decompose`` checked by what makes an answer right.

On random forms over fp:5, fp:7, q and dyadic (zero diagonals, swaps and
skew forms among them) every answer is re-multiplied on plain lists by
``witt_oracle``, which imports nothing from ``wittkit``: P^T G P = D with
D diagonal, and basis^T G basis = H^h + A.  D and A must have one Witt
class (Milnor's residues over Q and Z[1/2], the dimension and the
discriminant over F_p).  Forms built as H^h + A with A anisotropic must
split at most h planes, exactly h when the answer is certified; over F_p
every remainder is proved anisotropic by brute force.  Every matrix comes
in the canonical slice form, and a call either answers or refuses with
``OracleInconclusive`` or ``BudgetExceeded``.  Which valid basis is
returned is not checked.  ``witt_decompose`` is also compared with the
whole-block loop of ``congruence_reference``, which diagonalizes all that
is left of the form after each plane: the number of planes, the
remainder's class and the refusals.  A form keeps its diagonalization and
its class once computed: whatever was asked of it before, each call must
answer as on a fresh form.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

import congruence_reference as ref
import witt_oracle as oracle
from wittkit import forms
from wittkit.errors import BudgetExceeded, DegenerateForm, OracleInconclusive
from wittkit.forms import GramForm, diagonalize, witt_decompose
from wittkit.intlinalg import int_det, matmul_int
from wittkit.invariants import witt_class
from wittkit.rings import RingSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

RINGS = tuple(RingSpec.from_tag(tag) for tag in ("fp:5", "fp:7", "q", "dyadic"))
UNITS = {"fp": (1, 2, 3), "q": (1, -1, 2, -3, 5, Fraction(1, 3)), "dyadic": (1, -1, 2, -2, Fraction(1, 2), 4)}
STEPS = {"fp": (1, 2, -1), "q": (1, -1, 2, Fraction(1, 2), Fraction(-2, 3)), "dyadic": (1, -1, 2, Fraction(-1, 2))}
# Anisotropic blocks, chosen as perfbench/wl_witt.py chooses them: over F_p
# <1>, <n> and <1, -n> for n the least non-residue; over Q and Z[1/2]
# definite blocks, and indefinite ones with no rational zero (x^2 = 2y^2,
# x^2 = 3y^2 and x^2 + y^2 = 3z^2 have none)
BLOCKS = {"fp:5": ([], [1], [2], [1, -2]), "fp:7": ([], [1], [3], [1, -3]),
          "q": ([], [1], [-1], [2], [1, 1], [2, 3], [-1, -1], [1, -2], [1, -3], [1, 1, 1], [-1, -2, -5], [1, 1, -3]),
          "dyadic": ([], [1], [-1], [2], [1, 2], [1, 1], [-1, -2], [1, -2], [1, 1, 1], [1, 1, 2], [1, 1, 1, 1])}


def _shear(draw, kind, grid):
    """The grid moved by up to 2n random shears e_j += c e_i and swaps."""
    n = len(grid)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = [[int(r == c) for c in range(n)] for r in range(n)]
        if i == j or draw(st.booleans()):
            t[i][i] = t[j][j] = 0
            t[i][j] = t[j][i] = 1  # a swap (the identity when i == j)
        else:
            t[i][j] = draw(st.sampled_from(STEPS[kind]))
        grid = matmul_int(matmul_int(list(map(list, zip(*t))), grid), t)
    return grid


@st.composite
def _forms(draw, rings=RINGS):
    """A nondegenerate form: hyperbolic planes plus unit diagonal entries,
    moved by random shears and swaps, or a random dense symmetric grid."""
    spec = draw(st.sampled_from(rings))
    eps = draw(st.sampled_from((1, 1, -1)))
    n = draw(st.integers(0, 8))
    if eps == -1:
        n -= n % 2
    if eps == 1 and spec.kind != "dyadic" and draw(st.booleans()):
        entry = st.integers(-3, 3) if spec.kind == "fp" else st.sampled_from((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = draw(entry)
    else:
        planes = draw(st.integers(0, n // 2)) if eps == 1 else n // 2
        units = [draw(st.sampled_from(UNITS[spec.kind])) for _ in range(n - 2 * planes)]
        grid = _shear(draw, spec.kind, oracle.split_grid(planes, eps, units))
    try:
        return GramForm.from_rows(spec, grid, eps)
    except DegenerateForm:
        hypothesis.assume(False)


@st.composite
def _split_forms(draw):
    """(f, h, block): H^h + diag(block), block anisotropic, moved by random
    shears and swaps, so that its Witt index is exactly h."""
    tag = draw(st.sampled_from(tuple(BLOCKS)))
    eps = draw(st.sampled_from((1, 1, -1)))
    block = draw(st.sampled_from(BLOCKS[tag])) if eps == 1 else []
    h = draw(st.integers(0, (8 - len(block)) // 2))
    spec = RingSpec.from_tag(tag)
    return GramForm.from_rows(spec, _shear(draw, spec.kind, oracle.split_grid(h, eps, block)), eps), h, block


def _form(tag, rows, eps=1):
    return GramForm.from_rows(RingSpec.from_tag(tag), [[Fraction(c) for c in row] for row in rows], eps)


def _sheared_q(h, block, seed):
    """H^h + diag(block) over Q moved by 2n seeded shears e_j += c e_i,
    c in +-1, +-2: a strongly sheared form of Witt index h."""
    grid = oracle.split_grid(h, 1, block)
    n = len(grid)
    rng = random.Random(seed)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        t = [[int(r == c) for c in range(n)] for r in range(n)]
        t[i][j] = rng.choice((-2, -1, 1, 2))
        grid = matmul_int(matmul_int(list(map(list, zip(*t))), grid), t)
    return GramForm.from_rows(RingSpec.from_tag("q"), grid)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the same refusal, or the same bug, on both sides
        return (type(exc).__name__, str(exc))


def _assert_canonical(m):
    (grid,), den = m._slice_form()
    entries = [v for row in grid for v in row]
    assert all(type(v) is int for v in entries)
    if m.spec.p:
        assert den == 1 and all(0 <= v < m.spec.p for v in entries)
    else:
        assert den > 0 and math.gcd(den, *entries) == 1


def _diagonalize(f):
    """D's diagonal, with P^T G P = D checked, or None for a refusal, which
    only the pivot search over Z[1/2] may raise."""
    mod, dyadic = f.ring.p, f.ring.kind == "dyadic"
    try:
        p, d = diagonalize(f)
    except (OracleInconclusive, BudgetExceeded):
        assert dyadic
        return None
    _assert_canonical(p)
    _assert_canonical(d.gram)
    diag = oracle.unit_diagonal(d.gram.cells, mod, dyadic)
    assert not dyadic or all(c in (1, -1, 2, -2) for c in diag)
    assert oracle.in_ring(p.cells, dyadic)
    assert oracle.congruent(p.cells, f.gram.cells, d.gram.cells, mod)
    return diag


def _decompose(f, bound):
    """(decomposition, A's diagonal), with basis^T G basis = H^h + A
    checked and, over F_p, A proved anisotropic; or None for a refusal,
    which only the searches over Q and Z[1/2] may raise."""
    mod, dyadic = f.ring.p, f.ring.kind == "dyadic"
    try:
        dec = witt_decompose(f, bound)
    except (OracleInconclusive, BudgetExceeded):
        assert not mod
        return None
    basis, aniso = dec.change_of_basis, dec.anisotropic.gram
    _assert_canonical(basis)
    _assert_canonical(aniso)
    # a skew form over a field or Z[1/2] is hyperbolic
    rest = oracle.unit_diagonal(aniso.cells, mod, dyadic) if f.epsilon == 1 else []
    assert 2 * dec.hyperbolic_rank + len(rest) == f.dim
    assert oracle.in_ring(basis.cells, dyadic)
    assert oracle.congruent(basis.cells, f.gram.cells, oracle.split_grid(dec.hyperbolic_rank, f.epsilon, rest), mod)
    if mod:
        assert dec.certified and len(rest) <= 2 and not oracle.isotropic(aniso.cells, mod)
    return dec, rest


def _same_class(spec, d1, d2):
    if spec.p:
        return oracle.fp_class(d1, spec.p) == oracle.fp_class([c % spec.p for c in d2], spec.p)
    return oracle.milnor_equiv(d1, d2)


_SHEARED = [(_sheared_q(h, [1, -2], h), h) for h in (1, 2, 3)]


@settings(max_examples=200, deadline=None)
@given(_forms(), st.integers(1, 3))
# no entry of the first row is a unit of Z[1/2], so the skew plane is
# completed from a Bezout vector (the Pfaffian is 3 * 3 - 5 * 7 + 3 * 9 = 1)
@hypothesis.example(_form("dyadic", [[0, 3, 5, 3], [-3, 0, 9, 7], [-5, -9, 0, 3], [-3, -7, -3, 0]], -1), 1)
# dyadic pivots split off by their orthogonal complement: one found after a
# Lagrange step, and two by the whole-block search, at heights 15 and 11
@hypothesis.example(_form("dyadic", [[0, 2], [2, 85]]), 1)
@hypothesis.example(_form("dyadic", [[-22, -48, -18], [-48, -130, 38], [-18, 38, -251]]), 2)
# strongly sheared Q forms, whose pivots are rarely the first nonzero entry
@hypothesis.example(*_SHEARED[0])
@hypothesis.example(*_SHEARED[1])
@hypothesis.example(*_SHEARED[2])
def test_answers_are_congruences_that_keep_the_class(f, bound):
    split = _decompose(f, bound)
    if f.epsilon == 1:
        diag = _diagonalize(f)
        if diag is not None and split is not None:
            assert _same_class(f.ring, diag, split[1])


@settings(max_examples=200, deadline=None)
@given(_split_forms(), st.integers(1, 3))
@hypothesis.example((_SHEARED[0][0], 1, [1, -2]), 1)
@hypothesis.example((_SHEARED[1][0], 2, [1, -2]), 2)
@hypothesis.example((_SHEARED[2][0], 3, [1, -2]), 3)
def test_forms_of_known_index_split_at_most_their_planes(form, bound):
    # exactly h when the remainder is certified anisotropic, always over F_p
    f, h, block = form
    split = _decompose(f, bound)
    if split is not None:
        dec, rest = split
        assert dec.hyperbolic_rank == h or (dec.hyperbolic_rank < h and not dec.certified)
        assert _same_class(f.ring, rest, block)


def _split_outcome(fn, f, bound):
    """(planes, remainder class, certified), or the refusal's type."""
    got = _outcome(fn, f, bound)
    if isinstance(got, tuple):
        return got[0]
    assert got.anisotropic.dim == 0 or f.epsilon == 1
    return got.hyperbolic_rank, witt_class(got.anisotropic) if f.epsilon == 1 else None, got.certified


# Forms on which witt_decompose splits fewer planes than the whole-block
# loop at the given height bound: no witness on the diagonal its remainder
# keeps lies within the bound, while one on a fresh diagonal does.
_FEWER_PLANES = [
    (_form("q", [[2, 1, 2, 0, 0], [1, 1, 1, 0, 0], [2, 1, 3, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]]), 1),
    (_form("q", [[1, 0, 0, 0, 0, 0], [0, -3, 0, 2, 0, 0], [0, 0, 5, 0, 0, 0], [0, 2, 0, "-125/27", "2/3", "4/9"],
                 [0, 0, 0, "2/3", -1, -1], [0, 0, 0, "4/9", -1, "-2/3"]]), 4),
    (_form("dyadic", [[1, -1, 1, 0, 2, 0, 1, 0], [-1, -1, -1, 0, -2, 0, -1, 0], [1, -1, "3/2", 0, "5/2", "1/2", 1, 0],
                      [0, 0, 0, 4, 0, 0, 0, 0], [2, -2, "5/2", 0, "13/2", "1/2", 2, 0], [0, 0, "1/2", 0, "1/2", "1/2", 0, -2],
                      [1, -1, 1, 0, 2, 0, 0, 0], [0, 0, 0, 0, 0, -2, 0, -2]]), 1),
]


@settings(max_examples=200, deadline=None)
@given(_forms(), st.integers(1, 4))
@hypothesis.example(*_FEWER_PLANES[0])
@hypothesis.example(*_FEWER_PLANES[1])
@hypothesis.example(*_FEWER_PLANES[2])
def test_one_diagonalization_against_the_whole_block_loop(f, bound):
    # the whole-block loop, which diagonalizes all that is left after each
    # plane, is the oracle: over F_p both are exact and must agree; over Q
    # and Z[1/2] the searches read other diagonals, so witt_decompose may
    # refuse only where the oracle refuses the same way, and may split
    # fewer planes only with a remainder it does not certify
    got = _split_outcome(witt_decompose, f, bound)
    want = _split_outcome(ref.witt_decompose_whole_block, f, bound)
    if isinstance(got, str):
        assert got == want
    elif isinstance(want, str):
        assert (f.ring.kind, want) == ("dyadic", "OracleInconclusive")
    elif f.ring.kind == "fp":
        assert got == want
    else:
        (rank, cls, certified), (rank_ref, cls_ref, certified_ref) = got, want
        assert cls == cls_ref
        assert rank >= rank_ref or not certified
        if certified and certified_ref:
            assert rank == rank_ref


def _answer(f, call):
    """What ``call`` gives on f, in a form to compare: matrices as their
    canonical grids, a refusal as its type and message."""
    out = _outcome(call[0], f, *call[1:])
    if isinstance(out, tuple) and isinstance(out[0], str):
        return out
    if call[0] is diagonalize:
        p, d = out
        return p.cells, d.gram.cells
    if call[0] is witt_class:
        return out, out.to_json(), out.disc_primes
    return out, out.change_of_basis.cells, out.anisotropic.gram.cells


_CALLS = [(diagonalize,), (witt_class,)] + [(witt_decompose, bound) for bound in range(1, 5)]
# no 2 x 2 principal block has a unit determinant: the dyadic pivot's
# unit-vector search runs; and a plane, which takes the 2 x 2 pivot
_DYADIC_PIVOTS = [[[47, -10, 33, -17], [-10, 9, -10, 6], [33, -10, 25, -13], [-17, 6, -13, 7]],
                  [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 2], [1, 0, 2, 0]]]


@settings(max_examples=150, deadline=None)
@given(_forms((RingSpec.from_tag("fp:5"), RingSpec.from_tag("q"), RingSpec.from_tag("dyadic"))),
       st.permutations(_CALLS))
@hypothesis.example(_form("dyadic", _DYADIC_PIVOTS[0]), _CALLS[::-1])
@hypothesis.example(_form("dyadic", _DYADIC_PIVOTS[1]), _CALLS[2:] + _CALLS[:2])
def test_kept_results_match_a_fresh_form(f, calls):
    hypothesis.assume(f.dim >= 1)
    for call in calls:
        fresh = GramForm.from_rows(f.ring, f.gram.cells, f.epsilon)
        assert _answer(f, call) == _answer(fresh, call)


def test_the_dyadic_examples_reach_the_pivot(monkeypatch):
    # the examples above take the 2 x 2 pivot step and its unit-vector
    # fallback
    seen = []
    pivot = forms._dyadic_block_pivot
    search = forms._unit_vector_search
    monkeypatch.setattr(forms, "_dyadic_block_pivot", lambda *a: seen.append("pivot") or pivot(*a))
    monkeypatch.setattr(forms, "_unit_vector_search", lambda *a: seen.append("search") or search(*a))
    for rows in _DYADIC_PIVOTS:
        seen.clear()
        diagonalize(_form("dyadic", rows))
        assert "pivot" in seen and ("search" in seen) == (rows is _DYADIC_PIVOTS[0])


_BINARY = {"q": (1, -1, 2, -2, 3, -3, 5, -6, 4, -9, Fraction(1, 2), Fraction(-8, 9)),
           "dyadic": (1, -1, 2, -2, 4, -4, Fraction(1, 2), Fraction(-1, 8)),
           "fp": (1, 2, 3, 4, 5, 6)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((RingSpec.from_tag("q"), RingSpec.from_tag("dyadic"), RingSpec.from_tag("fp:7"))),
       st.data())
def test_a_certified_binary_decomposition_splits_exactly_the_zero_class(spec, data):
    entries = [data.draw(st.sampled_from(_BINARY[spec.kind])) for _ in range(2)]
    f = GramForm.diagonal(spec, entries)
    dec = witt_decompose(f, data.draw(st.integers(1, 4)))
    assert dec.certified or spec.kind != "fp"
    if dec.certified:
        assert (dec.hyperbolic_rank == 1) == witt_class(f).is_zero


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_fp_congruence_steps_keep_their_grids_canonical(monkeypatch, p):
    # over F_p pivot, apply and plane take % p in the pass that computes
    # each row and run no canonical pass after it: after every step both
    # grids are residues in [0, p) over 1.  Nor does witt_decompose run one
    # on the blocks it copies out of them.
    seen = {"pivot": 0, "apply": 0, "plane": 0}
    reduced = forms._reduced

    def no_pass_over_1(mod, slices, den):
        assert not (mod and den == 1), "a canonical pass over a canonical F_p grid"
        return reduced(mod, slices, den)

    monkeypatch.setattr(forms, "_reduced", no_pass_over_1)
    for name in seen:
        real = getattr(forms._Congruence, name)

        def step(ws, *args, _real=real, _name=name):
            _real(ws, *args)
            assert ws.mod == p and ws.da == ws.dp == 1, _name
            for grid in (ws.a, ws.p):
                assert all(type(v) is int and 0 <= v < p for row in grid for v in row), _name
            seen[_name] += 1

        monkeypatch.setattr(forms._Congruence, name, step)
    spec = RingSpec.prime_field(p)
    rng = random.Random(p)
    for n in range(2, 13):
        for eps in (1, -1) if n % 2 == 0 else (1,):
            for _ in range(3):
                while True:
                    # zero diagonal entries among the symmetric ones make
                    # _diagonal pair coordinates with apply
                    grid = [[0] * n for _ in range(n)]
                    for i in range(n):
                        for j in range(i, n):
                            v = 0 if i == j and (eps == -1 or rng.random() < 0.5) else rng.randrange(p)
                            grid[i][j], grid[j][i] = v, eps * v % p
                    if int_det(grid) % p:
                        break
                f = GramForm.from_rows(spec, grid, eps)
                dec = witt_decompose(f)
                assert 2 * dec.hyperbolic_rank + dec.anisotropic.dim == n
                _assert_canonical(dec.change_of_basis)
                _assert_canonical(dec.anisotropic.gram)
    assert min(seen.values()) > 0, seen


def test_rational_diagonals_stay_small_under_strong_shears():
    # pivoting on the diagonal entry a / b of least |a| b: on these 200 forms
    # of dimensions 4-10 no D numerator or denominator reaches 37 bits, where
    # pivoting on the first nonzero entry reached 97
    for h in range(1, 5):
        for seed in range(50):
            (grid,), den = diagonalize(_sheared_q(h, [1, -2], seed))[1].gram._slice_form()
            assert max(abs(grid[i][i]) for i in range(len(grid))) < 1 << 48 and den < 1 << 48, (h, seed)


def test_strongly_sheared_dim_12_q_forms_split_into_certified_planes():
    # H^5 + <1, -2>: with small diagonal numerators the height-6 searches
    # find all 5 planes.  Seeds 1, 2, 3, 4, 6 and 19 of 0-19 still leave an
    # uncertified remainder of dimension 4, on which they find no witness
    # (ROADMAP items 3 and 10)
    for seed in (0, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18):
        f = _sheared_q(5, [1, -2], seed)
        start = time.perf_counter()
        dec = witt_decompose(f)
        assert time.perf_counter() - start < 0.1, seed
        assert (dec.hyperbolic_rank, dec.anisotropic.dim, dec.certified) == (5, 2, True), seed
