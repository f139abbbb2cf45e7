"""Witt classes, Hilbert symbols, ring tables."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

import invariants_reference as ref
from witt_oracle import milnor_equiv
from wittkit.errors import IllFormed, NotClosed, OracleInconclusive, SpecMismatch
from wittkit.forms import GramForm, hyperbolic, orth_sum, tensor
from wittkit.invariants import (
    WittClass,
    _dyadic_label,
    hilbert_symbol,
    witt_class,
    witt_equiv,
    witt_ring_table,
)
from wittkit.matrices import InvMatrix
from wittkit.rings import RingSpec

Q = RingSpec.rationals()
DY = RingSpec.dyadic()
F5 = RingSpec.prime_field(5)
F7 = RingSpec.prime_field(7)
F11 = RingSpec.prime_field(11)


# -- Hilbert symbols --------------------------------------------------------


def test_hilbert_frozen_values():
    assert hilbert_symbol(2, 2, 2) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(3, 3, 3) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(Fraction(1, 2), 2, 2) == 1
    for place in (1, 9, -3):
        with pytest.raises(IllFormed):
            hilbert_symbol(2, 3, place)


def test_hilbert_identities():
    rng = random.Random(31)
    places = [2, 3, 5, 7, "inf"]
    nonzero = [n for n in range(-12, 13) if n]
    for _ in range(60):
        a, b, c = (rng.choice(nonzero) for _ in range(3))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a, a * a, v) == 1


def test_hilbert_product_formula():
    # over all places, the symbols of a fixed pair multiply to +1;
    # only finitely many places can be -1 (primes dividing 2ab)
    rng = random.Random(37)
    for _ in range(50):
        a = rng.choice([n for n in range(-30, 31) if n])
        b = rng.choice([n for n in range(-30, 31) if n])
        primes = {2}
        for n in (abs(a), abs(b)):
            d = 2
            while d * d <= n:
                while n % d == 0:
                    primes.add(d)
                    n //= d
                d += 1
            if n > 1:
                primes.add(n)
        prod = hilbert_symbol(a, b, "inf")
        for p in primes:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


# -- Witt classes -----------------------------------------------------------


def test_dyadic_class_frozen():
    assert witt_class(GramForm.diagonal(DY, [1])).to_json() == {
        "signature": 1,
        "parity": 0,
    }
    assert witt_class(GramForm.diagonal(DY, [2])).to_json() == {
        "signature": 1,
        "parity": 1,
    }
    assert witt_class(GramForm.diagonal(DY, [1, 2])).to_json() == {
        "signature": 2,
        "parity": 1,
    }
    diff = witt_class(GramForm.diagonal(DY, [1])) - witt_class(
        GramForm.diagonal(DY, [2])
    )
    assert not diff.is_zero
    assert (diff + diff).is_zero


def test_rational_class_frozen():
    c = witt_class(GramForm.diagonal(Q, [3, 5]))
    assert c.to_json() == {
        "dim_mod2": 0,
        "signature": 2,
        "disc": -15,
        "hasse": {"5": -1},
    }
    assert witt_class(GramForm.diagonal(Q, [1, -1])).is_zero


def test_prime_field_classes():
    assert witt_equiv(GramForm.diagonal(F7, [1]), GramForm.diagonal(F7, [2]))
    assert not witt_equiv(GramForm.diagonal(F7, [1]), GramForm.diagonal(F7, [3]))
    assert witt_class(GramForm.diagonal(F7, [3])).to_json() == {
        "dim_mod2": 1,
        "disc": 3,
    }


def test_scaled_equivalence_with_explicit_isometry():
    # <1,1> and <2,2> agree over Q; P^T (2I) P = I for this P
    f = GramForm.diagonal(Q, [1, 1])
    g = GramForm.diagonal(Q, [2, 2])
    assert witt_equiv(f, g)
    p = InvMatrix.from_rows(
        Q, [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]]
    )
    assert p.conj_transpose() * g.gram * p == f.gram
    # ... but <1,1> and <1,2> do not agree (Hasse at 2 differs)
    assert not witt_equiv(f, GramForm.diagonal(Q, [1, 2]))


def test_class_is_additive():
    rng = random.Random(41)
    for spec in (Q, DY, F5, F7):
        for _ in range(15):
            f = _rand_diag(spec, rng)
            g = _rand_diag(spec, rng)
            assert witt_class(orth_sum(f, g)) == witt_class(f) + witt_class(g)
            assert (witt_class(f) - witt_class(f)).is_zero
            assert witt_class(f) + WittClass.zero(spec) == witt_class(f)


def _rand_diag(spec: RingSpec, rng: random.Random) -> GramForm:
    n = rng.randrange(1, 5)
    if spec.kind == "fp":
        entries = [rng.randrange(1, spec.p) for _ in range(n)]
    elif spec.kind == "dyadic":
        entries = [rng.choice([1, -1, 2, -2]) for _ in range(n)]
    else:
        entries = [Fraction(rng.choice([1, -1, 2, 3, -5, 7])) for _ in range(n)]
    return GramForm.diagonal(spec, entries)


def test_hyperbolic_forms_are_zero():
    for spec in (Q, DY, F5, F7):
        assert witt_class(hyperbolic(2, 1, spec)).is_zero
        assert witt_class(GramForm.diagonal(spec, [1, -1])).is_zero


def test_skew_classes():
    skew = GramForm.from_rows(F7, [[0, 1], [-1, 0]], epsilon=-1)
    assert witt_class(skew).is_zero
    skew_q = GramForm.from_rows(Q, [[0, 2], [-2, 0]], epsilon=-1)
    assert witt_class(skew_q).is_zero
    with pytest.raises(SpecMismatch):
        witt_class(GramForm.from_rows(DY, [[0, 1], [-1, 0]], epsilon=-1))
    with pytest.raises(SpecMismatch):
        witt_class(GramForm.diagonal(RingSpec.laurent2(), [1]))
    with pytest.raises(SpecMismatch):
        witt_equiv(GramForm.diagonal(Q, [1]), GramForm.diagonal(DY, [1]))


def test_equiv_matches_invariant_equality_randomized():
    rng = random.Random(43)
    for spec in (F5, F11, Q):
        for _ in range(20):
            f, g = _rand_diag(spec, rng), _rand_diag(spec, rng)
            assert witt_equiv(f, g) == (witt_class(f) == witt_class(g))


def _sheared(spec: RingSpec, entries: list, rng: random.Random) -> GramForm:
    """P^T D P for D = diag(entries) and P unit upper triangular over Z."""
    n = len(entries)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                p[i][j] = rng.choice((1, -1, 2))
    grid = [[sum(p[k][i] * entries[k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return GramForm.from_rows(spec, grid)


def _milnor_pair(spec: RingSpec, rng: random.Random) -> tuple[list, list]:
    """Two diagonals of one signature.  In a third of the pairs the second
    has fresh entries of the first's signs, in a third the same again with
    its last entry fixing the determinant, so that only the Hasse symbols
    can tell them apart.  In the rest it is the first moved by isometries
    and hyperbolic planes: <a, b> = <c, abc> for c = a x^2 + b y^2 (over
    Z[1/2], <a, a> = <2a, 2a>), scaling by a square, adding <t, -t>."""

    def entry(sign: int) -> Fraction:
        if spec == DY:
            return Fraction(sign * 2 ** rng.randint(0, 3))
        return Fraction(sign * rng.choice((1, 2, 3, 5, 6, 7, 10)), rng.choice((1, 1, 3, 5)))

    d1 = [entry(rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
    kind = rng.randrange(3)
    if kind < 2:
        d2 = [entry(1 if e > 0 else -1) for e in d1]
        if kind:
            d2[-1] = math.prod(d1[:-1], start=d1[-1]) / math.prod(d2[:-1])
        return d1, d2
    d2 = list(d1)
    for _ in range(rng.randint(1, 3)):
        step = rng.randrange(3)
        if step == 0 and len(d2) > 1:
            a, b = d2.pop(), d2.pop()
            if spec == DY:
                d2 += [2 * a, 2 * a] if a == b else [a, b]
            else:
                x, y = rng.randint(-2, 2), rng.choice((1, 2))
                c = a * x * x + b * y * y
                d2 += [c, a * b * c] if c else [a, b]
        elif step == 1:
            i = rng.randrange(len(d2))
            d2[i] *= 4 if spec == DY else Fraction(rng.randint(1, 3), rng.randint(1, 3)) ** 2
        else:
            t = entry(1)
            d2 += [t, -t]
        rng.shuffle(d2)
    return d1, d2


@pytest.mark.parametrize("spec, pairs", [(Q, 500), (DY, 150)], ids=str)
def test_equiv_matches_milnor_residues(spec, pairs):
    # Milnor's signature and second residues decide W(Q) with no Hilbert
    # symbol, and W(Z[1/2]) embeds in W(Q); a dyadic refusal is no failure
    rng = random.Random(8)
    answers, refused = [], 0
    for _ in range(pairs):
        d1, d2 = _milnor_pair(spec, rng)
        try:
            got = witt_equiv(_sheared(spec, d1, rng), _sheared(spec, d2, rng))
        except OracleInconclusive:
            refused += 1
            continue
        assert got == milnor_equiv(d1, d2), (d1, d2)
        answers.append(got)
    assert refused <= pairs // 20
    assert 0 < sum(answers) < len(answers)


# -- ring tables --------------------------------------------------------------


def test_dyadic_ring_table_frozen():
    t = witt_ring_table(DY)
    assert t.group == "Z+Z/2"
    assert t.generators == ("<1>", "<2>", "<-1>", "<-2>")
    assert t.classes == ("<-1>", "<-2>", "<1>", "<2>")
    assert t.free_generator == "<1>"
    assert t.torsion_generator == "<1> - <2>"
    j = t.to_json()
    assert j["ring"] == "dyadic"
    assert j["add"][0] == ["<1,1>", "<1,2>", "0", "<1,-2>"]
    assert j["mul"][1] == ["<2>", "<1>", "<-2>", "<-1>"]


def test_prime_field_tables_frozen():
    t5 = witt_ring_table(F5)
    assert t5.group == "Z/2+Z/2"
    assert t5.classes == ("0", "<1,3>", "<1>", "<2>")
    assert t5.to_json()["mul"][1] == ["0", "0", "<1,3>", "<1,3>"]
    t7 = witt_ring_table(F7)
    assert t7.group == "Z/4"
    assert t7.classes == ("0", "<1,4>", "<1>", "<3>")


def test_table_generated_subgroup():
    sub = witt_ring_table(DY, [GramForm.diagonal(DY, [1])])
    assert sub.group == "Z"
    assert sub.classes == ("<1>",)
    with pytest.raises(NotClosed):
        witt_ring_table(DY, [GramForm.diagonal(DY, [2])])
    with pytest.raises(NotClosed):
        witt_ring_table(F5, [GramForm.diagonal(F5, [2])])


def _span_in_box(pairs: list[tuple[int, int]], bound: int) -> set[tuple[int, int]]:
    """The (signature, parity) pairs with |signature| <= bound in the span of
    ``pairs`` in Z + Z/2: {(0, 0)} closed under adding and subtracting each
    pair inside the box, which reaches all of them once bound >= every |s_i|."""
    span, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        s, b = frontier.pop()
        for t, c in pairs:
            for nxt in ((s + t, (b + c) % 2), (s - t, (b + c) % 2)):
                if abs(nxt[0]) <= bound and nxt not in span:
                    span.add(nxt)
                    frontier.append(nxt)
    return span


def test_dyadic_table_matches_the_span_in_a_signature_box():
    rng = random.Random(13)
    seen = set()
    for _ in range(200):
        gens = [
            GramForm.diagonal(DY, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 2))])
            for _ in range(rng.randint(1, 3))
        ]
        pairs = [(c.signature, c.dyadic_disc_parity) for c in map(witt_class, gens)]
        span = _span_in_box(pairs, 8)
        products = [witt_class(tensor(f, g)) for f in gens for g in gens]
        if any((c.signature, c.dyadic_disc_parity) not in span for c in products):
            seen.add("NotClosed")
            with pytest.raises(NotClosed):
                witt_ring_table(DY, gens)
            continue
        t = witt_ring_table(DY, gens)
        seen.add(t.group)
        step = min((s for s, _ in span if s > 0), default=0)
        torsion = (0, 1) in span
        assert t.group == {(1, 1): "Z+Z/2", (1, 0): "Z", (0, 1): "Z/2", (0, 0): "0"}[bool(step), torsion]
        assert (t.torsion_generator is not None) == torsion
        if step:
            assert t.free_generator in {_dyadic_label(step, b) for s, b in span if s == step}
        else:
            assert t.free_generator is None
    assert seen == {"Z+Z/2", "Z", "Z/2", "0", "NotClosed"}


def test_table_addition_is_group_law():
    # every add-table entry names the class of the actual orthogonal sum
    t = witt_ring_table(F7)
    forms = {
        "0": GramForm.diagonal(F7, [1, -1]),
        "<1,4>": GramForm.diagonal(F7, [1, 4]),
        "<1>": GramForm.diagonal(F7, [1]),
        "<3>": GramForm.diagonal(F7, [3]),
    }
    labels = list(t.classes)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            want = witt_class(orth_sum(forms[a], forms[b]))
            got = witt_class(forms[t.add[i][j]])
            assert want == got



# primes near 2^44, 2^45 and 2^46: each is proved prime directly, but the
# product of two is beyond the factoring's work limit
P44, P45, P46 = 17592186044423, 35184372088891, 70368744177679


def test_entries_with_large_prime_factors_are_never_multiplied_out():
    places = {2, P44, P45, P46}
    for entries, disc in (([P44, P45], -P44 * P45), ([P44, -P45, P46], P44 * P45 * P46)):
        start = time.perf_counter()
        got = witt_class(GramForm.diagonal(Q, entries))
        elapsed = time.perf_counter() - start
        assert got == ref.witt_class_q(entries, places=places, disc=disc)
        assert elapsed < 0.1


def test_sums_and_negations_of_large_prime_classes_never_factor():
    # the class carries the primes of its discriminant P44 * P45, so the
    # sum and the negation read them instead of factoring the product
    c = witt_class(GramForm.diagonal(Q, [P44, P45]))
    one = witt_class(GramForm.diagonal(Q, [1]))
    cases = (
        (lambda: c + one, [P44, P45, 1], -P44 * P45),
        (lambda: one + c, [1, P44, P45], -P44 * P45),
        (lambda: -c, [-P44, -P45], -P44 * P45),
        (lambda: c - one, [P44, P45, -1], P44 * P45),
        (lambda: c + c, [P44, P45, P44, P45], 1),
        (lambda: -(c + one), [-P44, -P45, -1], P44 * P45),
        # a sum carries the primes on to the next sum and negation
        (lambda: c + one + one, [P44, P45, 1, 1], P44 * P45),
        (lambda: -(c + one + one), [-P44, -P45, -1, -1], P44 * P45),
    )
    for op, entries, disc in cases:
        start = time.perf_counter()
        got = op()
        elapsed = time.perf_counter() - start
        want = ref.witt_class_q(entries, places={2, P44, P45}, disc=disc)
        assert got == want and hash(got) == hash(want) and got.to_json() == want.to_json()
        assert elapsed < 0.1
