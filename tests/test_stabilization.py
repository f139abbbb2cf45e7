"""Eventually-periodic systems of finitely generated abelian groups."""

from __future__ import annotations

import json
import math
import operator
import random
from time import perf_counter

import pytest

import intlinalg_reference as ref
import stabilization_reference
from wittkit import stabilization
from wittkit.errors import IdentityViolated, IllFormed, NotCatalogued
from wittkit.intlinalg import int_det, prime_factors
from wittkit.matrices import _charpoly
from wittkit.stabilization import (
    ColimResult,
    FgAbGroup,
    GroupHom,
    GroupSeq,
    catalog_lookup,
    colimit,
    exactness_check,
    shift,
    shift_invariance_check,
    smith_normal_form,
    tensor_with_dyadic,
)

Z = FgAbGroup(1)
TRIV = FgAbGroup(0)
Z2 = FgAbGroup(0, (2,))
Z4 = FgAbGroup(0, (4,))
ZZ2 = FgAbGroup(1, (2,))


def seq_of(group: FgAbGroup, mat, prefix=()) -> GroupSeq:
    return GroupSeq(tuple(prefix), GroupHom(group, group, mat))


# -- groups -------------------------------------------------------------------


def test_group_canonicalization():
    assert FgAbGroup.of(1, [2, 3]) == FgAbGroup(1, (6,))
    assert FgAbGroup.of(0, [4, 2]) == FgAbGroup(0, (2, 4))
    assert FgAbGroup.of(2, [1, 1]) == FgAbGroup(2)
    assert FgAbGroup.from_presentation(2, [[2, 0], [0, 3]]) == FgAbGroup(0, (6,))
    assert FgAbGroup.from_presentation(2, [[2, 0]]) == FgAbGroup(1, (2,))
    assert FgAbGroup.from_presentation(2, []) == FgAbGroup(2)


def test_group_str_and_orders():
    assert str(ZZ2) == "Z+Z/2"
    assert str(TRIV) == "0"
    assert str(FgAbGroup(2, (2, 4))) == "Z^2+Z/2+Z/4"
    assert FgAbGroup(1, (2, 4)).orders == (0, 2, 4)
    assert TRIV.is_trivial and not Z.is_trivial


def test_group_validation():
    with pytest.raises(IllFormed):
        FgAbGroup(1, (3, 2))
    with pytest.raises(IllFormed):
        FgAbGroup(-1)
    with pytest.raises(IllFormed):
        FgAbGroup(0, (1,))


def test_group_keeps_its_factors_as_a_tuple_and_refuses_bools():
    g = FgAbGroup(0, [2, 4])
    assert g.torsion == (2, 4) and g == FgAbGroup(0, (2, 4))
    assert hash(g) == hash(FgAbGroup(0, (2, 4)))
    for rank, torsion in [(True, ()), (1.0, ()), ("1", ()), (0, (2, True)), (0, (2.0,)), (0, "24")]:
        with pytest.raises(IllFormed):
            FgAbGroup(rank, torsion)


def test_group_refuses_a_factor_list_that_is_not_one_and_a_negative_rank():
    for torsion in (6, None, 2.0, {2: 1}):
        for build in (FgAbGroup, FgAbGroup.of):
            with pytest.raises(IllFormed, match="list or tuple"):
                build(0, torsion)
    # the orders are normalized on their own, and the rank checked as given:
    # -1 is not absorbed into a presentation of 0 generators
    with pytest.raises(IllFormed, match="free rank"):
        FgAbGroup.of(-1, [2])
    assert FgAbGroup.of(3, [6, 1, 4]) == FgAbGroup(3, (2, 12))


def test_group_json():
    g = FgAbGroup(1, (2, 4))
    assert g.to_json() == {"rank": 1, "torsion": [2, 4]}
    assert FgAbGroup.from_json(g.to_json()) == g
    with pytest.raises(IllFormed):
        FgAbGroup.from_json({"rank": 1, "torsion": [], "extra": 0})
    with pytest.raises(IllFormed):
        FgAbGroup.from_json({"rank": 1, "torsion": [0]})


# -- homs ---------------------------------------------------------------------


def test_hom_canonical_reduction():
    h = GroupHom(Z4, Z2, ((3,),))
    assert h.matrix == ((1,),)


def test_hom_well_definedness():
    GroupHom(Z2, Z4, ((2,),))
    with pytest.raises(IllFormed):
        GroupHom(Z2, Z4, ((1,),))
    with pytest.raises(IllFormed):
        GroupHom(Z2, Z, ((1,),))
    with pytest.raises(IllFormed):
        GroupHom(Z, Z, ((1, 2),))


def test_hom_compose_identity():
    idz = GroupHom.identity(ZZ2)
    assert idz.compose(idz) == idz
    dbl = GroupHom(Z, Z, ((2,),))
    assert dbl.compose(dbl) == GroupHom(Z, Z, ((4,),))
    with pytest.raises(IllFormed):
        dbl.compose(GroupHom.identity(Z4))


# -- colimits -----------------------------------------------------------------


def test_colimit_frozen_examples():
    r = colimit(seq_of(Z, ((8,),)))
    assert r == ColimResult(1, (2,), ())
    assert r.to_json() == {"rank": 1, "inverted_primes": [2], "torsion": []}
    assert str(r) == "Z[1/2]"

    assert colimit(seq_of(Z, ((1,),))) == ColimResult(1, (), ())
    assert str(colimit(seq_of(Z, ((1,),)))) == "Z"

    r = colimit(seq_of(ZZ2, ((8, 0), (0, 1))))
    assert r == ColimResult(1, (2,), (2,))
    assert str(r) == "Z[1/2]+Z/2"

    assert colimit(seq_of(ZZ2, ((0, 0), (0, 0)))) == ColimResult(0, (), ())
    # nilpotent free part dies even though each map is nonzero
    assert colimit(seq_of(FgAbGroup(2), ((0, 1), (0, 0)))) == ColimResult(0, (), ())
    # non-diagonal map with rank-one eventual image; index 2 gets inverted
    assert colimit(seq_of(FgAbGroup(2), ((1, 1), (1, 1)))) == ColimResult(1, (2,), ())
    assert colimit(seq_of(FgAbGroup(2), ((2, 0), (0, 3)))) == ColimResult(2, (2, 3), ())


def test_colimit_torsion_stabilization():
    # doubling on Z/8 kills everything after three steps
    assert colimit(seq_of(FgAbGroup(0, (8,)), ((2,),))) == ColimResult(0, (), ())
    # tripling on Z/8 is an automorphism, the torsion survives
    assert colimit(seq_of(FgAbGroup(0, (8,)), ((3,),))) == ColimResult(0, (), (8,))
    r = colimit(seq_of(FgAbGroup(0, (2, 4)), ((1, 1), (0, 2))))
    assert r.rank == 0 and r.inverted_primes == ()


def test_colimit_sees_only_the_period():
    pre = (GroupHom(Z, Z, ((3,),)), GroupHom(Z, Z, ((5,),)))
    s = GroupSeq(pre, GroupHom(Z, Z, ((8,),)))
    assert colimit(s) == ColimResult(1, (2,), ())


def test_free_colimit_checks_that_the_map_preserves_the_image(monkeypatch):
    # a basis (1, 1) in place of the eventual image's (1, 0): F maps it to (1, 0)
    monkeypatch.setattr(stabilization, "int_inverse_unimodular", lambda u: [[1, 0], [1, 1]])
    with pytest.raises(IdentityViolated, match="preserve"):
        colimit(seq_of(FgAbGroup(2), ((1, 0), (0, 0))))


def test_free_colimit_powers_the_map_with_r_minus_1_products(monkeypatch):
    products = []
    real = stabilization.matmul_int

    def spy(a, b, p=None):
        products.append((a, b))
        return real(a, b, p)

    monkeypatch.setattr(stabilization, "matmul_int", spy)
    f = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
    assert colimit(seq_of(FgAbGroup(3), tuple(map(tuple, f)))) == ColimResult(3, (31,), ())
    # F^3 from F F and F^2 F, with no I F, then F times the image's basis
    assert products[:2] == [(f, f), (real(f, f), f)] and len(products) == 3


# -- random full-rank maps ------------------------------------------------------

@pytest.mark.parametrize("r, primes", [(7, (2, 3, 13)), (8, (31, 3119)), (10, (2, 3, 11411))])
def test_random_full_rank_colimits_answer_within_a_second(r, primes):
    # the seeded maps of the random-colimit probe; at full rank the inverted
    # primes are those of det F, by Bareiss and factoring, with no lattice
    rng = random.Random(1)
    f = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
    start = perf_counter()
    result = colimit(seq_of(FgAbGroup(r), tuple(map(tuple, f))))
    assert perf_counter() - start < 1
    assert result == ColimResult(r, tuple(prime_factors(int_det(f))), ()) == ColimResult(r, primes, ())


# -- the free colimit against two oracles ---------------------------------------


def _random_free_maps(count: int) -> list[list[list[int]]]:
    """Seeded maps of rank 0-8 with entries in -3..3 at densities 0.3, 0.6
    and 1, so that singular maps occur; a quarter of them are made
    nilpotent, their triangle from the diagonal down cleared and the rest
    conjugated by shears.  Then the maps of the random-colimit probe at
    ranks 7, 8 and 10."""
    rng = random.Random(25)
    maps = []
    for _ in range(count):
        r, density = rng.randint(0, 8), rng.choice((0.3, 0.6, 1))
        f = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(r)] for _ in range(r)]
        if r > 1 and rng.random() < 0.25:
            f = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(f)]
            for _ in range(r):
                # (I + c E_ij) f (I - c E_ij)
                i, j, c = *rng.sample(range(r), 2), rng.choice((1, -1))
                f[i] = [x + c * y for x, y in zip(f[i], f[j])]
                for row in f:
                    row[j] -= c * row[i]
        maps.append(f)
    for r in (7, 8, 10):
        probe = random.Random(1)
        maps.append([[probe.randint(-3, 3) for _ in range(r)] for _ in range(r)])
    return maps


def test_free_colimit_matches_the_smith_form_and_the_charpoly():
    # the charpoly oracle on every map; the former Smith-form colimit up to
    # rank 6, since its row/column Smith form of F^r takes seconds at rank 7
    ranks = set()
    for f in _random_free_maps(600):
        r = len(f)
        result = colimit(seq_of(FgAbGroup(r), tuple(map(tuple, f))))
        free = (result.rank, result.inverted_primes)
        assert free == stabilization_reference.charpoly_free_colimit(f), f
        if r <= 6:
            assert free == stabilization_reference.smith_free_colimit(f), f
        ranks.add((r, result.rank))
    # full rank, singular and nilpotent maps at every rank from 2 to 8
    for r in range(2, 9):
        assert (r, r) in ranks and (r, 0) in ranks and any(0 < rho < r for n, rho in ranks if n == r)


def test_charpoly_oracle_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for f in _random_free_maps(300):
        if f:
            want = [int(c) for c in sympy.Matrix(f).charpoly().all_coeffs()]
            assert _charpoly((operator.add, operator.neg, operator.mul), f, 1) == want


# -- the torsion colimit in closed form ---------------------------------------

@pytest.mark.parametrize(
    "factors, mat, torsion",
    [
        (
            (10, 30, 120, 720),
            ((-6, 1, -3, 5), (18, 0, 0, 4), (-48, -4, 2, 5), (432, 96, 30, -1)),
            (5, 5, 15, 720),
        ),
        ((2**36, 2**36 * 3**18), ((2, 1), (0, 3)), (2**36,)),
        # above the order bound of the fixpoint property test; brute force agrees
        ((8, 48, 96), ((-2, 3, 5), (-18, 4, -6), (36, 0, -1)), (3, 96)),
        # the image halves at each of the 20 steps before it dies
        ((2**20,), ((2,),), ()),
    ],
)
def test_torsion_colimits_of_large_groups_answer_at_once(factors, mat, torsion):
    start = perf_counter()
    assert colimit(seq_of(FgAbGroup(0, factors), mat)) == ColimResult(0, (), torsion)
    assert perf_counter() - start < 0.5


def test_torsion_colimit_rechecks_the_power(monkeypatch):
    # too few squarings leave an image that still shrinks one step further
    monkeypatch.setattr(math, "prod", lambda factors: 1)
    with pytest.raises(IdentityViolated):
        colimit(seq_of(FgAbGroup(0, (2**20,)), ((2,),)))
    assert colimit(seq_of(FgAbGroup(0, (8,)), ((3,),))) == ColimResult(0, (), (8,))


def _prime_to(d: int, c: int) -> int:
    """The largest divisor of d prime to c."""
    while (g := math.gcd(d, c)) > 1:
        d //= g
    return d


@pytest.mark.parametrize("diagonal", [True, False])
def test_four_torsion_factors_answer_within_a_per_call_bound(diagonal):
    # perfbench/wl_stab.py draws at most three factors today.  Its shape:
    # orders from 2, 3, 4 or 6, each 1 or 2 times the one before, each
    # factor times one of 1, -1, 2, 3, 0, 5; there the part of each factor
    # prime to its multiplier survives.  Beside it, well-defined maps with
    # orders growing by up to 6, against the former closed form.
    rng = random.Random(4)
    for _ in range(200):
        e = rng.choice((2, 3, 4, 6) if diagonal else (2, 3, 4, 5, 6, 8, 9, 10, 12))
        factors = []
        for _ in range(4):
            factors.append(e)
            e *= rng.choice((1, 2)) if diagonal else rng.randint(1, 6)
        g = FgAbGroup(0, tuple(factors))
        if diagonal:
            mults = [rng.choice((1, -1, 2, 3, 0, 5)) for _ in factors]
            mat = tuple(
                tuple(c % d if j == i else 0 for j in range(4)) for i, (c, d) in enumerate(zip(mults, factors))
            )
            expected = FgAbGroup.of(0, [_prime_to(d, c) for d, c in zip(factors, mults)]).torsion
        else:
            mat = tuple(
                tuple(rng.randint(-6, 6) * (factors[i] // factors[j] if i > j else 1) for j in range(4))
                for i in range(4)
            )
            expected = stabilization_reference.closed_form_torsion_colimit(GroupHom(g, g, mat))
        start = perf_counter()
        assert colimit(seq_of(g, mat)) == ColimResult(0, (), expected)
        assert perf_counter() - start < 0.1


# -- shift and refinement invariance -------------------------------------------


def test_shift():
    pre = (GroupHom(Z, Z, ((3,),)), GroupHom(Z, Z, ((5,),)))
    s = GroupSeq(pre, GroupHom(Z, Z, ((8,),)))
    assert shift(s, 0) == s
    assert shift(s, 1).prefix == pre[1:]
    assert shift(s, 5).prefix == ()
    with pytest.raises(IllFormed):
        shift(s, -1)


def test_shift_invariance():
    pre = (GroupHom(Z, Z, ((3,),)), GroupHom(Z, Z, ((5,),)))
    s = GroupSeq(pre, GroupHom(Z, Z, ((8,),)))
    for k in (1, 2, 3, 4):
        assert shift_invariance_check(s, k)
    assert not shift_invariance_check(s, 1, against=seq_of(Z, ((3,),)))
    with pytest.raises(IllFormed):
        shift_invariance_check(s, 0)


def test_period_refinement():
    s = seq_of(Z, ((8,),))
    assert colimit(seq_of(Z, ((64,),))) == colimit(s)
    pre = (GroupHom(Z, Z, ((3,),)), GroupHom(Z, Z, ((5,),)))
    both = GroupSeq(pre, GroupHom(Z, Z, ((8,),)))
    comp = pre[1].compose(pre[0])
    collapsed = GroupSeq((comp,), GroupHom(Z, Z, ((8,),)))
    assert colimit(collapsed) == colimit(both)


def test_random_shift_invariance():
    rng = random.Random(7)
    for _ in range(12):
        sq = _random_seq(rng)
        for k in (1, 2, 3):
            assert shift_invariance_check(sq, k)


def _rand_hom(src: FgAbGroup, tgt: FgAbGroup, rng: random.Random) -> GroupHom:
    so, to = src.orders, tgt.orders
    rows = []
    for i in range(tgt.ngens):
        row = []
        for j in range(src.ngens):
            if so[j] and to[i] == 0:
                row.append(0)
            elif so[j]:
                step = to[i] // math.gcd(to[i], so[j])
                row.append(step * rng.randrange(0, max(1, to[i] // max(step, 1))))
            else:
                row.append(rng.randrange(-4, 5))
        rows.append(tuple(row))
    return GroupHom(src, tgt, tuple(rows))


def _random_seq(rng: random.Random) -> GroupSeq:
    rank = rng.randrange(0, 3)
    tors = sorted(rng.choice([2, 2, 3, 4]) for _ in range(rng.randrange(0, 3)))
    g = FgAbGroup.of(rank, tors)
    prefix_groups = []
    for _ in range(rng.randrange(0, 3)):
        pr = rng.randrange(0, 3)
        pt = sorted(rng.choice([2, 3, 4]) for _ in range(rng.randrange(0, 2)))
        prefix_groups.append(FgAbGroup.of(pr, pt))
    homs = []
    for i, pg in enumerate(prefix_groups):
        nxt = prefix_groups[i + 1] if i + 1 < len(prefix_groups) else g
        homs.append(_rand_hom(pg, nxt, rng))
    return GroupSeq(tuple(homs), _rand_hom(g, g, rng))


# -- JSON ----------------------------------------------------------------------


def test_seq_json_roundtrip():
    pre = (GroupHom(Z, Z, ((3,),)), GroupHom(Z, Z, ((5,),)))
    s = GroupSeq(pre, GroupHom(Z, Z, ((8,),)))
    obj = s.to_json()
    assert obj["period"] == {"group": {"rank": 1, "torsion": []}, "map": [[8]]}
    assert obj["prefix"][0] == {"group": {"rank": 1, "torsion": []}, "map": [[3]]}
    assert GroupSeq.from_json(json.loads(json.dumps(obj))) == s
    bare = {"prefix": [], "period": {"group": {"rank": 1, "torsion": []}, "map": [[8]]}}
    assert GroupSeq.from_json(bare) == seq_of(Z, ((8,),))


def test_seq_json_rejects_malformed():
    good_period = {"group": {"rank": 1, "torsion": []}, "map": [[8]]}
    with pytest.raises(IllFormed):
        GroupSeq.from_json({"period": good_period, "bogus": 1})
    with pytest.raises(IllFormed):
        GroupSeq.from_json({"period": {"group": {"rank": 1, "torsion": [0]}, "map": [[8]]}})
    with pytest.raises(IllFormed):
        GroupSeq.from_json({"prefix": []})


# -- exactness ------------------------------------------------------------------


def test_exactness_basic_chains():
    assert exactness_check(
        [GroupHom.zero(TRIV, Z), GroupHom(Z, Z, ((1,),)), GroupHom.zero(Z, TRIV)]
    ) == []
    # 0 -> Z -x2-> Z -> Z/2 -> 0
    assert exactness_check(
        [
            GroupHom.zero(TRIV, Z),
            GroupHom(Z, Z, ((2,),)),
            GroupHom(Z, Z2, ((1,),)),
            GroupHom.zero(Z2, TRIV),
        ]
    ) == []
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0
    assert exactness_check(
        [
            GroupHom.zero(TRIV, Z2),
            GroupHom(Z2, Z4, ((2,),)),
            GroupHom(Z4, Z2, ((1,),)),
            GroupHom.zero(Z2, TRIV),
        ]
    ) == []


def test_exactness_reports_failing_nodes():
    bad = [
        GroupHom.zero(TRIV, Z),
        GroupHom(Z, Z, ((2,),)),
        GroupHom(Z, Z4, ((2,),)),
        GroupHom.zero(Z4, TRIV),
    ]
    assert exactness_check(bad) == [3]
    z22 = FgAbGroup(0, (2, 2))
    half_broken = [
        GroupHom.zero(TRIV, Z2),
        GroupHom(Z2, z22, ((1,), (0,))),
        GroupHom.zero(z22, Z2),
        GroupHom.zero(Z2, TRIV),
    ]
    assert exactness_check(half_broken) == [2, 3]


def test_exactness_rejects_non_composable():
    with pytest.raises(IllFormed):
        exactness_check([GroupHom.zero(TRIV, Z), GroupHom(Z4, Z4, ((1,),))])
    # a single map has no interior nodes, hence nothing to fail
    assert exactness_check([GroupHom.identity(Z)]) == []


# -- localization ---------------------------------------------------------------


def test_tensor_with_dyadic():
    assert tensor_with_dyadic(ZZ2) == ColimResult(1, (2,), ())
    assert tensor_with_dyadic(FgAbGroup(0, (12,))) == ColimResult(0, (), (3,))
    assert tensor_with_dyadic(ColimResult(2, (3,), (8, 6))) == ColimResult(2, (2, 3), (3,))
    assert tensor_with_dyadic(ColimResult(0, (), (4,))) == ColimResult(0, (), ())
    seq = seq_of(ZZ2, ((8, 0), (0, 1)))
    assert tensor_with_dyadic(colimit(seq)) == ColimResult(1, (2,), ())


# -- catalog ----------------------------------------------------------------------


def test_catalog_entries():
    e = catalog_lookup("W", 0, "dyadic", 1)
    assert e.group == ZZ2
    assert "Milnor" in e.citation
    e2 = catalog_lookup("L", -2, "dyadic", -1)
    assert e2.group == ZZ2
    assert "Karoubi" in e2.citation
    assert catalog_lookup("W^top", -8, "R", 1).group == Z
    assert catalog_lookup("W", 0, "R", 1).group == Z
    assert catalog_lookup("W", 0, "C", 1).group == FgAbGroup(0, (2,))
    assert e.to_json()["key"] == {"theory": "W", "n": 0, "ring": "dyadic", "epsilon": 1}
    # the two catalogued dyadic groups agree after inverting 2
    assert tensor_with_dyadic(e.group) == tensor_with_dyadic(e2.group)


def test_catalog_miss():
    with pytest.raises(NotCatalogued) as exc:
        catalog_lookup("W", 0, "dyadic", -1)
    assert "catalogued keys" in str(exc.value)


# -- Smith normal form -------------------------------------------------------------


def _mul_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_frozen():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]


def _snf_inputs(rng: random.Random, m: int, n: int):
    """Dense m x n matrices with small entries and, when at most three
    columns or rows keep the replaced Smith form fast, entries up to 2^40;
    then products of rank below min(m, n) with factors of either size."""
    yield [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    if min(m, n) <= 3:
        yield [[rng.randint(-(1 << 40), 1 << 40) for _ in range(n)] for _ in range(m)]
    for bound in (6, 1 << 40):
        k = rng.randrange(min(m, n, 4)) if min(m, n) else 0
        left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        yield [[sum(x * row[j] for x, row in zip(lrow, right)) for j in range(n)] for lrow in left]


def test_snf_properties():
    # D against the replaced row/column Smith form and sympy's, on shapes
    # 0..8 each way: m x 0 is m empty rows, and 0 x n is no rows at all
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(47)
    for m in range(9):
        for n in range(9):
            for mat in _snf_inputs(rng, m, n):
                u, d, v = smith_normal_form(mat)
                diag = [d[i][i] for i in range(min(m, n))]
                assert d == [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
                assert all(x >= 0 for x in diag)
                for a, b in zip(diag, diag[1:]):
                    assert b % a == 0 if a else b == 0
                assert d == ref.smith_normal_form(mat)[1]
                want = sympy_snf(sympy.Matrix(m, n, [x for row in mat for x in row]), domain=sympy.ZZ)
                assert d == [[int(want[i, j]) for j in range(n)] for i in range(m)]
                assert len(u) == m and abs(sympy.Matrix(u).det()) == 1
                if m:
                    assert len(v) == n and abs(sympy.Matrix(v).det()) == 1
                if m and n:
                    assert _mul_int(_mul_int(u, mat), v) == d
