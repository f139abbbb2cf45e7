"""Scalar layer: specs, payload arithmetic, units, involution, JSON."""

from __future__ import annotations

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

import rings_reference as ref
from wittkit.errors import BudgetExceeded, IllFormed, NonUnit, SpecMismatch
from wittkit.forms import GramForm
from wittkit.matrices import InvMatrix
from wittkit.rings import _MR_LIMIT, RingElem, RingSpec, _is_odd_prime, canon_payload, nil_generator

Q = RingSpec.rationals()
DY = RingSpec.dyadic()
L2 = RingSpec.laurent2()
F7 = RingSpec.prime_field(7)


def test_spec_tags_roundtrip():
    for spec in (Q, DY, L2, F7, RingSpec.trunc_nil(Q, 3), RingSpec.trunc_nil(F7, 2)):
        assert RingSpec.from_json(spec.to_json()) == spec
    for spec in (Q, DY, L2, F7):
        assert RingSpec.from_tag(str(spec)) == spec
    assert RingSpec.from_tag("fp:7") == F7
    assert RingSpec.from_tag("q") == Q
    assert RingSpec.from_tag("truncnil:q:3") == RingSpec.trunc_nil(Q, 3)
    assert RingSpec.from_tag("truncnil:fp:5:2") == RingSpec.trunc_nil(RingSpec.prime_field(5), 2)
    assert str(F7) == "fp:7"


def test_spec_validation():
    with pytest.raises(IllFormed):
        RingSpec.prime_field(2)
    with pytest.raises(IllFormed):
        RingSpec.prime_field(9)
    with pytest.raises(IllFormed):
        RingSpec.trunc_nil(Q, 0)
    with pytest.raises(IllFormed):
        RingSpec.trunc_nil(RingSpec.trunc_nil(Q, 2), 2)
    with pytest.raises(IllFormed):
        RingSpec.from_tag("zz")



def _odd_prime_by_trial_division(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_prime_test_matches_trial_division():
    assert [n for n in range(10**5) if _is_odd_prime(n) != _odd_prime_by_trial_division(n)] == []


def test_prime_test_rejects_pseudoprimes_and_stays_fast():
    # a Carmichael number, strong pseudoprimes to the bases 2, to 2..7, and
    # the least one to all of the first 12 prime bases
    for n in (561, 41041, 2047, 3215031751, 318665857834031151167461):
        assert not _is_odd_prime(n)
        with pytest.raises(IllFormed):
            RingSpec.prime_field(n)
    start = time.perf_counter()
    assert RingSpec.prime_field(1000000000000037).p == 1000000000000037
    assert time.perf_counter() - start < 0.5


def test_prime_test_refuses_beyond_its_exact_range():
    assert _is_odd_prime(_MR_LIMIT - 168)  # the largest prime below the limit
    with pytest.raises(BudgetExceeded):
        RingSpec.from_tag(f"fp:{_MR_LIMIT}")
    with pytest.raises(BudgetExceeded):
        RingSpec.from_json({"ring": "fp", "p": 10**30 + 57})


def test_prime_test_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for bits in (20, 40, 64, 81):
        for _ in range(300):
            n = rng.getrandbits(bits) | 1
            if n < _MR_LIMIT:
                assert _is_odd_prime(n) == (n > 2 and sympy.isprime(n))

def test_field_arithmetic_f7():
    a = RingElem.from_fraction(F7, 3)
    b = RingElem.from_fraction(F7, 5)
    assert (a + b).payload == 1
    assert (a * b).payload == 1
    assert (a - b).payload == 5
    assert (a / b).payload == (3 * pow(5, 5, 7)) % 7
    assert (-a).payload == 4
    assert a**6 == RingElem.one(F7)
    # fractions reduce mod p
    assert RingElem.from_fraction(F7, Fraction(1, 2)).payload == 4


def test_dyadic_units():
    two = RingElem.from_fraction(DY, 2)
    half = RingElem.from_fraction(DY, Fraction(1, 2))
    three = RingElem.from_fraction(DY, 3)
    assert two.is_unit() and half.is_unit() and (-two).is_unit()
    assert not three.is_unit()
    assert two.inv() == half
    with pytest.raises(NonUnit):
        three.inv()
    with pytest.raises(IllFormed):
        RingElem.from_fraction(DY, Fraction(1, 3))


def test_laurent_arithmetic_and_involution():
    t = RingElem.monomial(1, t_exp=1)
    z = RingElem.monomial(1, z_exp=1)
    e = (t + z) * (t - z)
    assert e == t * t - z * z
    # involution inverts both variables
    assert t.involute() == RingElem.monomial(1, t_exp=-1)
    assert (t * z).involute() == RingElem.monomial(1, t_exp=-1, z_exp=-1)
    x = RingElem.monomial(Fraction(3, 4), 2, -1) + RingElem.monomial(1, 0, 1)
    assert x.involute().involute() == x
    # units are +-2^k t^i z^j
    assert RingElem.monomial(Fraction(-1, 2), 3, -2).is_unit()
    assert not (t + z).is_unit()
    assert (t * t.inv()) == RingElem.one(L2)


def test_laurent_monomials_are_units_only_with_a_power_of_two_coefficient():
    for coeff, unit in ((1, True), (-4, True), (Fraction(1, 8), True), (3, False), (Fraction(-3, 2), False)):
        assert RingElem.monomial(coeff, 2, -1).is_unit() == unit
    assert not RingElem.zero(L2).is_unit()


def test_laurent_substitution():
    t = RingElem.monomial(1, t_exp=1)
    z = RingElem.monomial(1, z_exp=1)
    e = t * z + z
    one = RingElem.one(L2)
    assert e.substitute(t=one) == z + z
    assert e.substitute(t=one, z=one) == RingElem.from_fraction(L2, 2)
    # partial substitution keeps the other variable symbolic
    assert e.substitute(z=one) == t + one


def test_truncated_ring():
    spec = RingSpec.trunc_nil(Q, 3)
    x = nil_generator(spec)
    assert x.is_nilpotent() and not x.is_unit()
    assert (x**3).is_zero()
    e = RingElem.series(spec, [1, 2, 3])
    f = RingElem.series(spec, [1, -2])
    assert e * f == RingElem.series(spec, [1, 0, -1])
    assert (RingElem.one(spec) + x).is_unit()
    assert (RingElem.one(spec) + x).inv() == RingElem.series(spec, [1, -1, 1])
    with pytest.raises(SpecMismatch):
        RingElem.series(Q, [1])
    # k = 1 collapses x to zero
    assert nil_generator(RingSpec.trunc_nil(Q, 1)).is_zero()


def test_mixed_ring_rejected():
    with pytest.raises(SpecMismatch):
        RingElem.one(Q) + RingElem.one(DY)


def test_elem_json_roundtrip():
    rng = random.Random(0)
    specs = [Q, DY, F7, L2, RingSpec.trunc_nil(DY, 2)]
    for spec in specs:
        for _ in range(25):
            e = _random_elem(spec, rng)
            assert RingElem.from_json(spec, e.to_json()) == e


def test_json_numbers_are_integers_not_truncated_floats():
    # a float (or bool) where an integer belongs is refused, never read as int(x)
    with pytest.raises(IllFormed):
        GramForm.from_json({"ring": {"ring": "fp", "p": 5}, "diag": [1.5, 2.7]})
    with pytest.raises(IllFormed):
        GramForm.from_json({"ring": {"ring": "q"}, "diag": [[1.5, 1]]})
    for ring in (
        {"ring": "fp", "p": 7.9},
        {"ring": "truncnil", "base": "q", "k": 2.5},
        {"ring": "truncnil", "base": "q", "k": True},
    ):
        with pytest.raises(IllFormed):
            RingSpec.from_json(ring)
    for epsilon in (True, 1.0):
        with pytest.raises(IllFormed):
            GramForm.from_json({"ring": "q", "epsilon": epsilon, "diag": [1]})
    truncnil = RingSpec.trunc_nil(Q, 2)
    bad = {
        Q: ([1.5, 1], [3, 2.0], [1, True]),
        F7: (2.0, False),
        truncnil: ([[1, 1], [1.5, 1]], [[1, 1], [2, 1.0]]),
        L2: ([[[0, 0], [1.5, 1]]], [[[0, 1.0], [1, 1]]], [[[True, 0], [1, 1]]]),
    }
    for spec, payloads in bad.items():
        for payload in payloads:
            with pytest.raises(IllFormed):
                RingElem.from_json(spec, payload)
    # integers, as before
    assert RingElem.from_json(truncnil, [[1, 1], [3, 2]]) == RingElem.series(truncnil, [1, Fraction(3, 2)])
    assert GramForm.from_json({"ring": {"ring": "fp", "p": 5}, "diag": [1, 7]}) == GramForm.diagonal(
        RingSpec.prime_field(5), [1, 2]
    )


def _random_elem(spec: RingSpec, rng: random.Random) -> RingElem:
    kind = spec.kind
    if kind == "fp":
        return RingElem.from_fraction(spec, rng.randrange(spec.p))
    if kind == "q":
        return RingElem.from_fraction(spec, Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)))
    if kind == "dyadic":
        return RingElem.from_fraction(spec, Fraction(rng.randrange(-9, 10), 2 ** rng.randrange(0, 4)))
    if kind == "laurent2":
        out = RingElem.zero(spec)
        for _ in range(rng.randrange(0, 4)):
            out = out + RingElem.monomial(
                Fraction(rng.randrange(-3, 4), 2 ** rng.randrange(0, 3)),
                rng.randrange(-2, 3),
                rng.randrange(-2, 3),
            )
        return out
    coeffs = [_random_elem(spec.base, rng) for _ in range(spec.k)]
    return RingElem.series(spec, coeffs)


@pytest.mark.parametrize("base", (F7, Q, DY, L2), ids=str)
def test_truncated_ops_match_the_coefficient_definitions(base):
    # RingSpec.ops of B[x]/(x^k) against coefficient-wise arithmetic in B
    rng = random.Random(str(base))
    for k in (1, 2, 4):
        spec = RingSpec.trunc_nil(base, k)
        elems = [RingElem.zero(spec)] + [_random_elem(spec, rng) for _ in range(20)]
        for a, b in zip(elems, reversed(elems)):
            ca = [RingElem(base, c, _raw=True) for c in a.payload]
            cb = [RingElem(base, c, _raw=True) for c in b.payload]
            zero = RingElem.zero(base)
            want = {
                "add": [x + y for x, y in zip(ca, cb)],
                "neg": [-x for x in ca],
                "mul": [sum((ca[i] * cb[d - i] for i in range(d + 1)), zero) for d in range(k)],
            }
            got = {
                "add": spec.ops.add(a.payload, b.payload),
                "neg": spec.ops.neg(a.payload),
                "mul": spec.ops.mul(a.payload, b.payload),
            }
            for name, coeffs in want.items():
                assert got[name] == tuple(c.payload for c in coeffs), name
                assert [type(c) for c in got[name]] == [type(c.payload) for c in coeffs], name
            assert spec.ops.is_zero(a.payload) == all(c.is_zero() for c in ca)


def test_ring_axioms_random():
    rng = random.Random(1)
    for spec in (Q, DY, F7, L2, RingSpec.trunc_nil(F7, 3)):
        for _ in range(40):
            a, b, c = (_random_elem(spec, rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert (a * b).involute() == a.involute() * b.involute()
            assert a - a == RingElem.zero(spec)


@pytest.mark.parametrize(
    "tag", ["fp:5", "q", "dyadic", "laurent2", "truncnil:q:3", "truncnil:fp:5:3", "truncnil:dyadic:2",
            "truncnil:laurent2:2"],
)
def test_pickle_and_copy_round_trip(tag):
    # specs carry closures and the values guard their slots; both must
    # still pickle and copy, and the copies must compute
    spec = RingSpec.from_tag(tag)
    x = RingElem.one(spec) + RingElem.one(spec)
    built = InvMatrix.from_rows(spec, [[1, 2], [3, 4]])
    product = built * built  # slice-only over every ring but the Laurent ones
    form = GramForm.from_rows(spec, [[1, 0], [0, -1]])
    for obj in (spec, x, built, product, form):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(clone) is type(obj) and clone == obj and hash(clone) == hash(obj)
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert (RingElem.one(clone) + RingElem.one(clone)).payload == x.payload
    for clone in (pickle.loads(pickle.dumps(product)), copy.deepcopy(product)):
        assert (clone * built).cells == (product * built).cells
        assert clone.det() == product.det()


_BASE_TAGS = ("fp:3", "fp:7", "q", "dyadic", "laurent2")


@pytest.mark.parametrize("tag", [*_BASE_TAGS, *(f"truncnil:{b}:3" for b in _BASE_TAGS)])
def test_canon_payload_converts_fractions_as_the_reference_did(tag):
    # canon_payload is the one normalizer: on a Fraction it gives the payload
    # of the former per-kind conversion, or raises the same exception type
    spec = RingSpec.from_tag(tag)
    rng = random.Random(tag)
    for _ in range(300):
        q = Fraction(rng.randrange(-40, 41), rng.randrange(1, 65))
        try:
            want = ref._from_fraction(spec, q)
        except (IllFormed, NonUnit) as exc:
            with pytest.raises(type(exc)):
                canon_payload(spec, q)
        else:
            assert repr(canon_payload(spec, q)) == repr(want), q
    # the zero and one a spec carries are its canonical payloads, rebuilt
    # by pickling and copying
    assert spec.zero == canon_payload(spec, 0) and spec.one == canon_payload(spec, 1)
    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert (repr(clone.zero), repr(clone.one)) == (repr(spec.zero), repr(spec.one))
