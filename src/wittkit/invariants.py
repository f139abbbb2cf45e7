"""Complete Witt invariants and Witt ring tables for the supported rings.

Each coefficient ring gets an invariant tuple that classifies symmetric
forms up to Witt equivalence:

* odd prime field: dimension mod 2 and the signed discriminant's square
  class;
* rationals: dimension mod 2, signature, signed discriminant, and
  Hasse symbols at the finitely many relevant primes;
* dyadic integers Z[1/2]: signature and the 2-adic valuation of the
  discriminant mod 2, which together map the Witt group onto Z + Z/2.

"Signed discriminant" means (-1)^(n(n-1)/2) * det.  Unlike the raw
determinant it is insensitive to adding hyperbolic planes, so it is a
class invariant.  The same twist is applied to the Hasse symbols: the
stored value is the symbol of the form with all hyperbolic planes
formally stripped (rank n mod 2), which makes it a class invariant too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import IdentityViolated, IllFormed, NotClosed, SpecMismatch
from .forms import GramForm, diagonalize, tensor
from .intlinalg import bezout_vector, prime_factors
from .rings import DYADIC, PRIME_FIELD, RATIONALS, RingSpec, _is_odd_prime, _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Sequence

__all__ = [
    "WittClass",
    "WittRingTable",
    "hilbert_symbol",
    "witt_class",
    "witt_equiv",
    "witt_ring_table",
]


# ---------------------------------------------------------------------------
# scalar number theory
# ---------------------------------------------------------------------------


def _legendre(u: int, p: int) -> int:
    """Legendre symbol (u|p) for odd prime p and u not divisible by p."""
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def _nonresidue(p: int) -> int:
    for q in range(2, p):
        if _legendre(q, p) == -1:
            return q
    raise AssertionError("odd prime fields always have a non-residue")


def _fp_rep(u: int, p: int) -> int:
    """Canonical square-class representative mod p: 1 or the least non-residue."""
    return 1 if _legendre(u, p) == 1 else _nonresidue(p)


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a, n


def _square_class_int(x: Any, what: str) -> int:
    """A nonzero rational, collapsed to an integer in the same square class."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise IllFormed(f"{what} must be a nonzero rational, got {x!r}")
    n = x if isinstance(x, int) else x.numerator * x.denominator
    if n == 0:
        raise IllFormed(f"{what} must be nonzero")
    return n


def _square_class(n: int, known: Sequence[int] = ()) -> tuple[int, frozenset[int]]:
    """The squarefree integer in the square class of the nonzero n, and its
    primes; the primes ``known`` are divided out before the rest is factored."""
    rest = n
    for p in known:
        rest = _split_valuation(rest, p)[1]
    odd = frozenset(p for p in {*known, *prime_factors(rest)} if _split_valuation(n, p)[0] % 2)
    return (-1 if n < 0 else 1) * math.prod(odd), odd


def _sqf_mul(x: int, y: int) -> int:
    """The squarefree integer in the square class of x*y, for squarefree x and y."""
    g = math.gcd(x, y)
    return (x // g) * (y // g)


def _infinite_place(place: Any) -> bool:
    if place is None:
        return True
    if isinstance(place, str):
        return place in ("inf", "oo")
    return isinstance(place, float) and math.isinf(place)


def hilbert_symbol(a: int | Fraction, b: int | Fraction, place: Any) -> int:
    """Hilbert symbol (a, b) at a place of the rationals.

    ``place`` is 2, an odd prime, or the real place (pass ``None``,
    ``"inf"``, or ``math.inf``).  Computed by the closed local formulas:
    writing a = p^alpha * u and b = p^beta * v with u, v prime to p,

    * odd p:   (-1)^(alpha beta (p-1)/2) * (u|p)^beta * (v|p)^alpha
    * p = 2:   (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u))

    with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 taken mod 2.
    """
    x = _square_class_int(a, "a")
    y = _square_class_int(b, "b")
    if _infinite_place(place):
        return -1 if x < 0 and y < 0 else 1
    if (
        isinstance(place, bool)
        or not isinstance(place, int)
        or not (place == 2 or _is_odd_prime(place))
    ):
        raise IllFormed(f"place must be a prime or the infinite place, got {place!r}")
    p = place
    alpha, u = _split_valuation(x, p)
    beta, v = _split_valuation(y, p)
    if p == 2:
        e = ((u - 1) // 2) * ((v - 1) // 2)
        e += alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if e % 2 else 1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


# ---------------------------------------------------------------------------
# the invariant tuple
# ---------------------------------------------------------------------------


class WittClass(_Record):
    """Witt class of a symmetric form, stored as its complete invariants.

    Fields not meaningful for a ring stay at their defaults so that
    field-by-field equality decides Witt equivalence directly:

    * prime field: dim_mod2, disc (1 or the least non-residue);
    * rationals: dim_mod2, signature, disc (signed squarefree integer),
      hasse (sorted (prime, -1) pairs; omitted primes carry +1);
    * dyadic: signature and dyadic_disc_parity, with disc the matching
      representative in {1, -1, 2, -2} and dim_mod2 = signature mod 2.

    The hasse and disc fields store the hyperbolic-stable normalization
    described in the module docstring, so adding hyperbolic planes does
    not move them.  Over Q, ``disc_primes`` carries the primes of disc
    from ``witt_class`` to sums and negations, which then never factor; it
    is not an invariant (left out of ==, hash and JSON), and None means
    unknown: disc is factored when they are needed.
    """

    _fields = ("ring", "dim_mod2", "signature", "disc", "hasse", "dyadic_disc_parity")
    __slots__ = (*_fields, "disc_primes")

    def __init__(self, ring: RingSpec, dim_mod2: int = 0, signature: int = 0, disc: int = 1,
                 hasse: tuple[tuple[int, int], ...] = (), dyadic_disc_parity: int = 0,
                 disc_primes: frozenset[int] | None = None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "dim_mod2", dim_mod2)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "hasse", hasse)
        object.__setattr__(self, "dyadic_disc_parity", dyadic_disc_parity)
        object.__setattr__(self, "disc_primes", disc_primes)

    @classmethod
    def zero(cls, ring: RingSpec) -> "WittClass":
        return cls(ring)

    @property
    def is_zero(self) -> bool:
        return self == WittClass.zero(self.ring)

    def _places(self) -> set[int]:
        """2, the primes of disc and those with a Hasse symbol -1."""
        primes = self.disc_primes if self.disc_primes is not None else prime_factors(self.disc)
        return {2, *primes, *dict(self.hasse)}

    # -- group structure ---------------------------------------------------
    #
    # Orthogonal sum on classes.  The signed disc of f + g is
    # d(f) d(g) (-1)^(nm), and when both ranks are odd the stripped Hasse
    # symbol picks up one more destabilization step; everything is
    # computable from the stored tuples alone.

    def __add__(self, other: "WittClass") -> "WittClass":
        if not isinstance(other, WittClass):
            return NotImplemented
        if self.ring != other.ring:
            raise SpecMismatch("cannot add Witt classes over different rings")
        kind = self.ring.kind
        r = (self.dim_mod2 + other.dim_mod2) % 2
        cross = self.dim_mod2 * other.dim_mod2
        if kind == PRIME_FIELD:
            p = self.ring.p
            assert p is not None
            d = self.disc * other.disc * (-1 if cross else 1)
            return WittClass(self.ring, dim_mod2=r, disc=_fp_rep(d % p, p))
        if kind == DYADIC:
            parity = (self.dyadic_disc_parity + other.dyadic_disc_parity) % 2
            neg = (self.disc < 0) != (other.disc < 0)
            if cross:
                neg = not neg
            return WittClass(
                self.ring,
                dim_mod2=r,
                signature=self.signature + other.signature,
                disc=(-1 if neg else 1) * (2 if parity else 1),
                dyadic_disc_parity=parity,
            )
        disc = _sqf_mul(self.disc, other.disc)
        mine, theirs = dict(self.hasse), dict(other.hasse)
        places = self._places() | other._places()
        minus = []
        for p in sorted(places):
            v = mine.get(p, 1) * theirs.get(p, 1) * hilbert_symbol(self.disc, other.disc, p)
            if cross:
                v *= hilbert_symbol(-disc, -1, p)
            if v < 0:
                minus.append((p, -1))
        signature = self.signature + other.signature
        primes = frozenset(p for p in places if disc % p == 0)
        return WittClass(self.ring, r, signature, -disc if cross else disc, tuple(minus), disc_primes=primes)

    def __neg__(self) -> "WittClass":
        kind = self.ring.kind
        r = self.dim_mod2
        if kind == PRIME_FIELD:
            p = self.ring.p
            assert p is not None
            return WittClass(self.ring, dim_mod2=r, disc=_fp_rep(self.disc * (-1 if r else 1) % p, p))
        if kind == DYADIC:
            return WittClass(
                self.ring,
                dim_mod2=r,
                signature=-self.signature,
                disc=-self.disc if r else self.disc,
                dyadic_disc_parity=self.dyadic_disc_parity,
            )
        if r:
            return WittClass(self.ring, r, -self.signature, -self.disc, self.hasse, disc_primes=self.disc_primes)
        mine = dict(self.hasse)
        places = sorted(self._places())
        minus = tuple((p, -1) for p in places if mine.get(p, 1) * hilbert_symbol(self.disc, -1, p) < 0)
        return WittClass(self.ring, r, -self.signature, self.disc, minus, disc_primes=self.disc_primes)

    def __sub__(self, other: "WittClass") -> "WittClass":
        if not isinstance(other, WittClass):
            return NotImplemented
        return self + (-other)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        kind = self.ring.kind
        if kind == DYADIC:
            return {"signature": self.signature, "parity": self.dyadic_disc_parity}
        if kind == PRIME_FIELD:
            return {"dim_mod2": self.dim_mod2, "disc": self.disc}
        return {
            "dim_mod2": self.dim_mod2,
            "signature": self.signature,
            "disc": self.disc,
            "hasse": {str(p): v for p, v in self.hasse},
        }


# ---------------------------------------------------------------------------
# computing classes
# ---------------------------------------------------------------------------


def _stripped_hasse(xs: list[int], prefix: list[int], places: set[int]) -> tuple[tuple[int, int], ...]:
    """Hasse symbols of <x_1, ..., x_n> with its hyperbolic part formally
    removed; ``prefix[j]`` is the squarefree class of x_1...x_j.

    By bimultiplicativity the raw prod_{i<j} (x_i, x_j)_p is
    prod_j (x_1...x_(j-1), x_j)_p.  Removing a hyperbolic plane from g
    multiplies it by (-det g, -1)_p and negates det g, so stripping
    m = floor(n/2) planes multiplies it by (-1, -1)_p^floor(m/2)
    (-det, -1)_p^(m mod 2).  ``places`` are 2 and the primes of the x_i;
    at any other place every symbol is +1.
    """
    det = prefix[-1]
    m = len(xs) // 2
    minus = []
    for p in sorted(places):
        c = 1
        for before, x in zip(prefix[1:], xs[1:]):
            c *= hilbert_symbol(before, x, p)
        if m // 2 % 2:
            c *= hilbert_symbol(-1, -1, p)
        if m % 2:
            c *= hilbert_symbol(-det, -1, p)
        if c < 0:
            minus.append((p, -1))
    return tuple(minus)


def witt_class(f: GramForm) -> WittClass:
    """Complete Witt invariants of a symmetric form.

    Skew forms over a field are hyperbolic, hence the zero class.  Skew
    forms over Z[1/2] are out of scope and rejected.  The class of a
    symmetric form is computed once, from the diagonalization the form
    keeps, and kept on the form as long as it lives.  Over Q each
    numerator of ``diagonalize``'s D, and their denominator, is factored
    once; all else follows from their squarefree classes.
    """
    spec = f.ring
    if spec.kind not in (PRIME_FIELD, RATIONALS, DYADIC):
        raise SpecMismatch(f"no Witt invariants over {spec}")
    if f.epsilon == -1:
        if spec.kind == DYADIC:
            raise SpecMismatch("skew classes are only classified over fields")
        return WittClass.zero(spec)
    if f._class is None:
        object.__setattr__(f, "_class", _diagonal_class(diagonalize(f)[1]))
    return f._class


def _diagonal_class(d: GramForm) -> WittClass:
    """The class of the diagonal symmetric form d."""
    spec, n = d.ring, d.dim
    (grid,), den = d.gram._slice_form()
    nums = [row[i] for i, row in enumerate(grid)]
    twist = (n * (n - 1) // 2) % 2
    if spec.kind == PRIME_FIELD:
        p = spec.p
        assert p is not None
        return WittClass(spec, dim_mod2=n % 2, disc=_fp_rep(math.prod(nums) * (-1) ** twist % p, p))
    # den > 0, so each entry a_i / den has the sign of a_i
    signature = sum(1 if a > 0 else -1 for a in nums)
    if spec.kind == RATIONALS:
        # a_i / den is in the square class of a_i * den
        den_primes = prime_factors(den)
        den_class, den_odd = _square_class(den, den_primes)
        classes = {a: _square_class(a, den_primes) for a in set(nums)}
        xs = [_sqf_mul(classes[a][0], den_class) for a in nums]
        places = {2}.union(*(primes ^ den_odd for _, primes in classes.values()))
        prefix = [1]
        for x in xs:
            prefix.append(_sqf_mul(prefix[-1], x))
        hasse = _stripped_hasse(xs, prefix, places)
        disc = -prefix[-1] if twist else prefix[-1]
        primes = frozenset(p for p in places if disc % p == 0)
        return WittClass(spec, n % 2, signature, disc, hasse, disc_primes=primes)
    # dyadic: diagonalize has normalized every entry into {+-1, +-2}
    parity = 0
    negative = bool(twist)
    for a in nums:
        if abs(a) not in (den, 2 * den):
            raise IdentityViolated(f"dyadic diagonal entry {Fraction(a, den)} is not in +-1, +-2")
        parity ^= abs(a) != den
        negative ^= a < 0
    return WittClass(
        spec,
        dim_mod2=n % 2,
        signature=signature,
        disc=(-1 if negative else 1) * (2 if parity else 1),
        dyadic_disc_parity=parity,
    )


def witt_equiv(f: GramForm, g: GramForm) -> bool:
    """Whether two forms over the same ring represent the same Witt class."""
    if f.ring != g.ring or f.epsilon != g.epsilon:
        raise SpecMismatch("comparing forms needs a shared ring and symmetry sign")
    return witt_class(f) == witt_class(g)


# ---------------------------------------------------------------------------
# Witt ring tables
# ---------------------------------------------------------------------------


def _fp_entries(c: WittClass) -> list[int]:
    """The diagonal of the least form in a prime-field class."""
    p = c.ring.p
    assert p is not None
    if c.dim_mod2:
        return [c.disc]
    return [] if c.disc == 1 else [1, (-c.disc) % p]


def _fp_label(c: WittClass) -> str:
    entries = _fp_entries(c)
    return "<" + ",".join(map(str, entries)) + ">" if entries else "0"


def _dyadic_label(signature: int, parity: int) -> str:
    if signature == 0:
        return "0" if parity == 0 else "<1,-2>"
    unit = 1 if signature > 0 else -1
    entries = [unit] * (abs(signature) - parity) + [2 * unit] * parity
    return "<" + ",".join(str(e) for e in entries) + ">"


class WittRingTable(_Record):
    """Addition and multiplication tables plus the abstract group name.

    Over a prime field the group is finite, so ``classes`` lists every
    class generated by the input forms (lexicographic on invariant
    tuples) and the tables are indexed by that list.  Over the dyadic
    integers the group is infinite, so ``classes`` lists the distinct
    generator classes and the tables are indexed by ``generators``.
    """

    __slots__ = _fields = ("ring", "group", "generators", "classes", "add", "mul",
                           "free_generator", "torsion_generator")

    def __init__(self, ring: RingSpec, group: str, generators: tuple[str, ...], classes: tuple[str, ...],
                 add: tuple[tuple[str, ...], ...], mul: tuple[tuple[str, ...], ...],
                 free_generator: str | None = None, torsion_generator: str | None = None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "free_generator", free_generator)
        object.__setattr__(self, "torsion_generator", torsion_generator)

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "ring": str(self.ring),
            "group": self.group,
            "generators": list(self.generators),
            "classes": list(self.classes),
            "add": [list(row) for row in self.add],
            "mul": [list(row) for row in self.mul],
        }
        if self.free_generator is not None:
            out["free_generator"] = self.free_generator
        if self.torsion_generator is not None:
            out["torsion_generator"] = self.torsion_generator
        return out


_DEFAULT_DYADIC_DIAGS = ((1,), (2,), (-1,), (-2,))


def _fp_table(ring: RingSpec, gen_classes: list[WittClass]) -> WittRingTable:
    closure = {WittClass.zero(ring), *gen_classes}
    grew = True
    while grew:
        grew = False
        for x in list(closure):
            for y in (-x, *(x + z for z in list(closure))):
                if y not in closure:
                    closure.add(y)
                    grew = True
    ordered = sorted(closure, key=lambda c: (c.dim_mod2, c.disc))
    order = len(ordered)
    if order not in (1, 2, 4):
        raise IdentityViolated(f"prime-field Witt groups have 1, 2 or 4 classes, not {order}")
    least = {c: GramForm.diagonal(ring, _fp_entries(c)) for c in ordered}
    add_rows = []
    mul_rows = []
    for x in ordered:
        add_rows.append(tuple(_fp_label(x + y) for y in ordered))
        row = []
        for y in ordered:
            prod = witt_class(tensor(least[x], least[y]))
            if prod not in closure:
                raise NotClosed(
                    f"product {_fp_label(x)} * {_fp_label(y)} = {_fp_label(prod)} "
                    "lies outside the group the generators span"
                )
            row.append(_fp_label(prod))
        mul_rows.append(tuple(row))
    if order == 4:
        # cyclic exactly when some class has order 4
        group = "Z/4" if any(not (c + c).is_zero for c in ordered) else "Z/2+Z/2"
    else:
        group = "0" if order == 1 else "Z/2"
    return WittRingTable(
        ring=ring,
        group=group,
        generators=tuple(map(_fp_label, gen_classes)),
        classes=tuple(map(_fp_label, ordered)),
        add=tuple(add_rows),
        mul=tuple(mul_rows),
    )


def _dyadic_table(ring: RingSpec, gens: Sequence[GramForm], gen_classes: list[WittClass]) -> WittRingTable:
    labels = tuple(_dyadic_label(c.signature, c.dyadic_disc_parity) for c in gen_classes)
    sigs = [c.signature for c in gen_classes]
    bits = [c.dyadic_disc_parity for c in gen_classes]
    # (step, parity) = sum c_i (s_i, b_i) has the least signature the span
    # reaches, so the span is Z (step, parity) plus the classes of signature
    # zero that each generator leaves over when that multiple is taken away
    step, coeffs = bezout_vector(sigs)
    parity = sum(l * b for l, b in zip(coeffs, bits)) % 2

    def defect(s: int, b: int) -> int | None:
        """Parity of (s, b) minus the multiple of (step, parity) at
        signature s; None when no multiple has signature s."""
        q, r = divmod(s, step) if step else (0, s)
        return None if r else (b - q * parity) % 2

    torsion = any(defect(s, b) for s, b in zip(sigs, bits))

    def member(c: WittClass) -> bool:
        left = defect(c.signature, c.dyadic_disc_parity)
        return left is not None and (left == 0 or torsion)

    add_rows = []
    mul_rows = []
    for i, gi in enumerate(gens):
        add_rows.append(
            tuple(
                _dyadic_label((c := gen_classes[i] + gen_classes[j]).signature, c.dyadic_disc_parity)
                for j in range(len(gens))
            )
        )
        row = []
        for j, gj in enumerate(gens):
            prod = witt_class(tensor(gi, gj))
            if not member(prod):
                raise NotClosed(
                    f"product {labels[i]} * {labels[j]} = "
                    f"{_dyadic_label(prod.signature, prod.dyadic_disc_parity)} "
                    "lies outside the group the generators span"
                )
            row.append(_dyadic_label(prod.signature, prod.dyadic_disc_parity))
        mul_rows.append(tuple(row))
    if step and torsion:
        group = "Z+Z/2"
    elif step:
        group = "Z"
    else:
        group = "Z/2" if torsion else "0"
    free_gen: str | None = None
    torsion_gen: str | None = None
    if step == 1 and torsion:
        # full lattice: the stated generators of Z + Z/2
        free_gen = "<1>"
        torsion_gen = "<1> - <2>"
    elif step:
        free_gen = _dyadic_label(step, parity)
        if torsion:
            torsion_gen = "<1,-2>"
    elif torsion:
        torsion_gen = "<1,-2>"
    distinct = sorted({(c.signature, c.dyadic_disc_parity) for c in gen_classes})
    return WittRingTable(
        ring=ring,
        group=group,
        generators=labels,
        classes=tuple(_dyadic_label(s, b) for s, b in distinct),
        add=tuple(add_rows),
        mul=tuple(mul_rows),
        free_generator=free_gen,
        torsion_generator=torsion_gen,
    )


def witt_ring_table(ring: RingSpec, generators: Sequence[GramForm] | None = None) -> WittRingTable:
    """Tabulate the Witt classes spanned by the generators.

    With ``generators=None`` a canonical spanning set is used: diagonal
    forms over {1, 2, -1, -2} for the dyadic integers, and <1> plus the
    least non-residue for a prime field.  Raises NotClosed when some
    tensor product of generators lands outside the spanned group, since
    the table would then not describe a ring.
    """
    if ring.kind not in (PRIME_FIELD, DYADIC):
        raise SpecMismatch(f"Witt ring tables cover prime fields and Z[1/2], not {ring}")
    if generators is None:
        if ring.kind == DYADIC:
            gens = [GramForm.diagonal(ring, list(d)) for d in _DEFAULT_DYADIC_DIAGS]
        else:
            assert ring.p is not None
            gens = [GramForm.diagonal(ring, [1]), GramForm.diagonal(ring, [_nonresidue(ring.p)])]
    else:
        gens = list(generators)
        if not gens:
            raise IllFormed("at least one generator form is required")
        for g in gens:
            if not isinstance(g, GramForm):
                raise IllFormed(f"generators must be forms, got {type(g).__name__}")
            if g.ring != ring:
                raise SpecMismatch("generator ring does not match the table ring")
            if g.epsilon != 1:
                raise SpecMismatch("Witt ring tables take symmetric generators")
    classes = [witt_class(g) for g in gens]
    return _fp_table(ring, classes) if ring.kind == PRIME_FIELD else _dyadic_table(ring, gens, classes)
