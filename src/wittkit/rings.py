"""Exact arithmetic in the supported involutive coefficient rings.

Five ring kinds are supported, all with 2 invertible and all represented
exactly (no floating point anywhere):

* ``fp`` -- the prime field F_p for an odd prime p; payload is an int in
  ``[0, p)``.  The involution is the identity.
* ``q`` -- the rationals; payload is a ``fractions.Fraction``.  Identity
  involution.
* ``dyadic`` -- Z[1/2], rationals whose denominator is a power of two;
  payload is a ``Fraction`` restricted accordingly.  Identity involution.
* ``laurent2`` -- the two-variable Laurent ring Z[1/2][t, 1/t, z, 1/z] with
  the involution t -> 1/t, z -> 1/z; payload is a sorted tuple of
  ``((t_exp, z_exp), coeff)`` pairs with nonzero dyadic coefficients.
* ``truncnil`` -- the truncated polynomial ring B[x]/(x^k) over one of the
  rings above (nesting depth one); payload is a tuple of exactly k base
  payloads, constant term first.  The involution fixes x and acts on
  coefficients.

Elements are immutable, hashable, and kept in canonical form, so ``==`` is
exact equality in the ring.  ``canon_payload`` is the one normalizer: every
payload, from an int, a Fraction or a coefficient list, comes out of it.
A ``RingSpec`` builds its ``ops``, the payload arithmetic specialised to
its kind, once, when it is created; its ``zero`` and ``one``, built then
too, are ``canon_payload`` of 0 and 1.

>>> R = RingSpec.trunc_nil(RingSpec.rationals(), 3)
>>> x = nil_generator(R)
>>> ((1 + x) * (1 - x + x**2)).payload      # 1/(1+x) truncated at x^3
(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1))
>>> (1 + x).inv() == 1 - x + x**2
True
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from operator import add, attrgetter, mul, neg, not_

from .errors import BudgetExceeded, IllFormed, NonUnit, SpecMismatch

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Iterable

PRIME_FIELD = "fp"
RATIONALS = "q"
DYADIC = "dyadic"
LAURENT2 = "laurent2"
TRUNC_NIL = "truncnil"


# Strong probable-prime bases: the first 13 primes.  No odd composite below
# _MR_LIMIT is a strong pseudoprime to all of them (OEIS A014233), so below
# it the test is exact; the first 12 alone are exact only below 3.19e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every p below _MR_LIMIT."""
    if p < 3 or p % 2 == 0:
        return False
    if p >= _MR_LIMIT:
        raise BudgetExceeded(f"primality of {p} is only decided below {_MR_LIMIT}")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _Frozen:
    """Immutable slots, set past the guard by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple) -> None:
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class _Record(_Frozen):
    """==, hash and a dataclass-style repr over the ``_fields`` of the slots."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __ne__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is not other and self._key(self) != self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


def _is_power_of_two(n: int) -> bool:
    """Whether |n| = 2^j for some j >= 0: a denominator of Z[1/2], or the
    numerator of one of its units."""
    n = abs(n)
    return n != 0 and n & (n - 1) == 0


class RingSpec(_Record):
    """Identifier of one supported ring; shared by all elements over it."""

    _fields = ("kind", "p", "base", "k")
    # ops: payload arithmetic with the kind dispatched once; zero, one: canonical payloads
    __slots__ = (*_fields, "ops", "zero", "one")

    def __init__(self, kind: str, p: int | None = None, base: RingSpec | None = None, k: int | None = None):
        if kind == PRIME_FIELD:
            if p is None or not _is_odd_prime(p):
                raise IllFormed(f"prime field needs an odd prime, got {p!r}")
        elif kind in (RATIONALS, DYADIC, LAURENT2):
            if p is not None or base is not None or k is not None:
                raise IllFormed(f"{kind} takes no parameters")
        elif kind == TRUNC_NIL:
            if base is None or base.kind == TRUNC_NIL:
                raise IllFormed("truncated ring needs a non-truncated base ring")
            if k is None or k < 1:
                raise IllFormed("truncation order must be a positive integer")
        else:
            raise IllFormed(f"unknown ring kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ops", _ring_ops(self))
        object.__setattr__(self, "zero", canon_payload(self, 0))
        object.__setattr__(self, "one", canon_payload(self, 1))

    def __reduce__(self) -> tuple:
        # the ops closures do not pickle; the constructor builds them and the
        # zero and one payloads again
        return (RingSpec, (self.kind, self.p, self.base, self.k))

    # -- constructors ----------------------------------------------------

    @classmethod
    def prime_field(cls, p: int) -> "RingSpec":
        return cls(PRIME_FIELD, p=p)

    @classmethod
    def rationals(cls) -> "RingSpec":
        return cls(RATIONALS)

    @classmethod
    def dyadic(cls) -> "RingSpec":
        return cls(DYADIC)

    @classmethod
    @cache
    def laurent2(cls) -> "RingSpec":
        return cls(LAURENT2)

    @classmethod
    def trunc_nil(cls, base: "RingSpec", k: int) -> "RingSpec":
        return cls(TRUNC_NIL, base=base, k=k)

    # -- properties -------------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind in (PRIME_FIELD, RATIONALS)

    def __str__(self) -> str:
        if self.kind == PRIME_FIELD:
            return f"fp:{self.p}"
        if self.kind == TRUNC_NIL:
            return f"truncnil({self.base},k={self.k})"
        return self.kind

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == PRIME_FIELD:
            return {"ring": PRIME_FIELD, "p": self.p}
        if self.kind == TRUNC_NIL:
            assert self.base is not None
            return {"ring": TRUNC_NIL, "base": self.base.to_json(), "k": self.k}
        return {"ring": self.kind}

    @classmethod
    def from_tag(cls, tag: str) -> "RingSpec":
        """Parse a compact ring tag: ``q``, ``dyadic``, ``laurent2``,
        ``fp:7``, ``truncnil:<base tag>:<k>``."""
        parts = tag.strip().split(":")
        try:
            if parts[0] == PRIME_FIELD and len(parts) == 2:
                return cls.prime_field(int(parts[1]))
            if parts[0] == TRUNC_NIL and len(parts) >= 3:
                return cls.trunc_nil(cls.from_tag(":".join(parts[1:-1])), int(parts[-1]))
        except ValueError:
            raise IllFormed(f"cannot parse ring tag {tag!r}") from None
        if len(parts) == 1 and parts[0] in (RATIONALS, DYADIC, LAURENT2):
            return cls(parts[0])
        raise IllFormed(f"cannot parse ring tag {tag!r}")

    @classmethod
    def from_json(cls, obj: Any) -> "RingSpec":
        if isinstance(obj, str):
            return cls.from_tag(obj)
        if not isinstance(obj, dict) or "ring" not in obj:
            raise IllFormed(f"ring spec must be an object with a 'ring' tag, got {obj!r}")
        kind = obj["ring"]
        try:
            if kind == PRIME_FIELD:
                return cls.prime_field(_json_int(obj["p"]))
            if kind == TRUNC_NIL:
                return cls.trunc_nil(cls.from_json(obj["base"]), _json_int(obj["k"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise IllFormed(f"bad {kind} ring spec {obj!r}: {exc!r}") from None
        if kind in (RATIONALS, DYADIC, LAURENT2):
            return cls(kind)
        raise IllFormed(f"unknown ring tag {kind!r}")


# ---------------------------------------------------------------------------
# payload-level arithmetic
#
# Hot paths (matrix products over truncated rings) run on raw payloads to
# avoid wrapper churn; RingElem is a thin immutable facade over these.
# ---------------------------------------------------------------------------


def _frac(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise IllFormed(f"expected an integer or Fraction, got {value!r}")


def canon_payload(spec: RingSpec, raw: Any) -> Any:
    """Normalize ``raw`` into the canonical payload for ``spec``."""
    if spec.kind == PRIME_FIELD:
        p = spec.p
        assert p is not None
        if isinstance(raw, Fraction):
            if raw.denominator % p == 0:
                raise NonUnit(f"denominator of {raw} vanishes mod {p}")
            return raw.numerator * pow(raw.denominator, p - 2, p) % p
        if not isinstance(raw, int):
            raise IllFormed(f"prime field payload must be an int, got {raw!r}")
        return raw % p
    if spec.kind == RATIONALS:
        return _frac(raw)
    if spec.kind == DYADIC:
        q = _frac(raw)
        if not _is_power_of_two(q.denominator):
            raise IllFormed(f"{q} is not a dyadic rational")
        return q
    if spec.kind == LAURENT2:
        if isinstance(raw, (int, Fraction)):
            return _laurent_from_terms([((0, 0), _frac(raw))])
        if isinstance(raw, dict):
            return _laurent_from_terms(list(raw.items()))
        if isinstance(raw, (list, tuple)):
            return _laurent_from_terms(list(raw))
        raise IllFormed(f"cannot read Laurent payload from {raw!r}")
    if spec.kind == TRUNC_NIL:
        base = spec.base
        assert base is not None and spec.k is not None
        if isinstance(raw, (int, Fraction)):
            coeffs: list[Any] = [raw]
        elif isinstance(raw, (list, tuple)):
            coeffs = list(raw)
        else:
            raise IllFormed(f"cannot read truncated payload from {raw!r}")
        out = [canon_payload(base, c) for c in coeffs[: spec.k]]
        return tuple(out + [base.zero] * (spec.k - len(out)))
    raise IllFormed(f"unknown ring kind {spec.kind!r}")


def _laurent_from_terms(terms: Iterable[tuple[Any, Any]]) -> tuple:
    acc: dict[tuple[int, int], Fraction] = {}
    for key, coeff in terms:
        et, ez = key
        c = _frac(coeff)
        if not _is_power_of_two(c.denominator):
            raise IllFormed(f"Laurent coefficient {c} is not dyadic")
        k = (int(et), int(ez))
        acc[k] = acc.get(k, Fraction(0)) + c
    return tuple(sorted((k, v) for k, v in acc.items() if v != 0))


class RingOps(namedtuple("RingOps", "add neg mul is_zero involute")):
    """Payload arithmetic of one ring, specialised to its kind.

    Every payload of every kind is falsy exactly when it is zero, so
    ``is_zero`` is ``not`` for the scalar kinds and ``not any`` over the
    coefficients of a truncated ring.  ``involute`` is ``_fixed`` unless
    Laurent variables are involved.
    """

    __slots__ = ()


def _laurent_add(a: tuple, b: tuple) -> tuple:
    acc = dict(a)
    for key, coeff in b:
        s = acc.get(key, Fraction(0)) + coeff
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)
    return tuple(sorted(acc.items()))


def _laurent_neg(a: tuple) -> tuple:
    return tuple((key, -coeff) for key, coeff in a)


def _fixed(a: Any) -> Any:
    return a


def _laurent_involute(a: tuple) -> tuple:
    return tuple(sorted(((-i, -j), c) for (i, j), c in a))


def _laurent_mul(a: tuple, b: tuple) -> tuple:
    acc: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in a:
        for (i2, j2), c2 in b:
            key = (i1 + i2, j1 + j2)
            s = acc.get(key, Fraction(0)) + c1 * c2
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return tuple(sorted(acc.items()))


def _ring_ops(spec: RingSpec) -> RingOps:
    """The ops of ``spec``; a truncated ring's are built on its base's."""
    if spec.kind == PRIME_FIELD:
        p = spec.p
        return RingOps(lambda a, b: (a + b) % p, lambda a: -a % p, lambda a, b: a * b % p, not_, _fixed)
    if spec.kind in (RATIONALS, DYADIC):
        return RingOps(add, neg, mul, not_, _fixed)
    if spec.kind == LAURENT2:
        return RingOps(_laurent_add, _laurent_neg, _laurent_mul, not_, _laurent_involute)
    base, k = spec.base, spec.k
    assert base is not None and k is not None
    badd, bneg, bmul, _, binv = base.ops
    zero = base.zero

    def trunc_add(a: tuple, b: tuple) -> tuple:
        return tuple(map(badd, a, b))

    def trunc_neg(a: tuple) -> tuple:
        return tuple(map(bneg, a))

    def trunc_is_zero(a: tuple) -> bool:
        return not any(a)

    def trunc_involute(a: tuple) -> tuple:
        return tuple(map(binv, a))

    if base.kind == LAURENT2:

        def trunc_mul(a: tuple, b: tuple) -> tuple:
            out = [zero] * k
            for i, x in enumerate(a):
                if not x:
                    continue
                for j in range(k - i):
                    y = b[j]
                    if y:
                        out[i + j] = badd(out[i + j], bmul(x, y))
            return tuple(out)

    else:
        # ints or Fractions: accumulate with plain + and *, reduce mod p once
        p = base.p

        def trunc_mul(a: tuple, b: tuple) -> tuple:
            out = [zero] * k
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b[: k - i], i):
                        if y:
                            out[j] += x * y
            return tuple([v % p for v in out]) if p else tuple(out)

    involute = _fixed if binv is _fixed else trunc_involute
    return RingOps(trunc_add, trunc_neg, trunc_mul, trunc_is_zero, involute)


def _is_unit(spec: RingSpec, a: Any) -> bool:
    if spec.kind == PRIME_FIELD:
        return a != 0
    if spec.kind == RATIONALS:
        return bool(a)
    if spec.kind == DYADIC:
        return _is_power_of_two(a.numerator)
    if spec.kind == LAURENT2:
        return len(a) == 1 and _is_power_of_two(a[0][1].numerator)
    base = spec.base
    return _is_unit(base, a[0])  # type: ignore[index]


def _inv(spec: RingSpec, a: Any) -> Any:
    if not _is_unit(spec, a):
        raise NonUnit(f"{payload_repr(spec, a)} is not a unit of {spec}")
    if spec.kind == PRIME_FIELD:
        return pow(a, spec.p - 2, spec.p)  # type: ignore[operator]
    if spec.kind in (RATIONALS, DYADIC):
        return 1 / a
    if spec.kind == LAURENT2:
        ((i, j), coeff), = a
        return (((-i, -j), 1 / coeff),)
    base = spec.base
    k = spec.k
    assert base is not None and k is not None
    # a = a0 (1 + m) with m nilpotent: invert a0, then a geometric series in -m.
    a0inv = _inv(base, a[0])
    m = tuple(base.ops.mul(a0inv, x) for x in a[1:])  # coefficients of m, degree 1..k-1
    m_full = (base.zero,) + m
    ops = spec.ops
    out = term = spec.one
    for _ in range(1, k):
        term = ops.mul(term, ops.neg(m_full))
        if ops.is_zero(term):
            break
        out = ops.add(out, term)
    scalar = (a0inv,) + (base.zero,) * (k - 1)
    return ops.mul(out, scalar)


def _is_nilpotent(spec: RingSpec, a: Any) -> bool:
    if spec.kind == TRUNC_NIL:
        base = spec.base
        return base.ops.is_zero(a[0])  # type: ignore[union-attr]
    return spec.ops.is_zero(a)


def payload_repr(spec: RingSpec, a: Any) -> str:
    if spec.kind == PRIME_FIELD:
        return str(a)
    if spec.kind in (RATIONALS, DYADIC):
        return str(a)
    if spec.kind == LAURENT2:
        if not a:
            return "0"
        parts = []
        for (i, j), c in a:
            factors = [] if c == 1 and (i or j) else [str(c)]
            if i:
                factors.append("t" if i == 1 else f"t^{i}")
            if j:
                factors.append("z" if j == 1 else f"z^{j}")
            parts.append("*".join(factors) or "1")
        return " + ".join(parts)
    base = spec.base
    assert base is not None
    parts = []
    for d, c in enumerate(a):
        if base.ops.is_zero(c):
            continue
        s = payload_repr(base, c)
        if d == 0:
            parts.append(s)
        else:
            xs = "x" if d == 1 else f"x^{d}"
            parts.append(xs if s == "1" else f"({s})*{xs}")
    return " + ".join(parts) or "0"


def payload_to_json(spec: RingSpec, a: Any) -> Any:
    if spec.kind == PRIME_FIELD:
        return a
    if spec.kind in (RATIONALS, DYADIC):
        return [a.numerator, a.denominator]
    if spec.kind == LAURENT2:
        return [[[i, j], [c.numerator, c.denominator]] for (i, j), c in a]
    base = spec.base
    return [payload_to_json(base, c) for c in a]  # type: ignore[arg-type]


def _json_int(x: Any) -> int:
    """An integer leaf of a JSON payload; a float or bool is refused, not truncated."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"{x!r} is not an integer")
    return int(x)


def payload_from_json(spec: RingSpec, obj: Any) -> Any:
    try:
        if spec.kind == PRIME_FIELD:
            return canon_payload(spec, _json_int(obj))
        if spec.kind in (RATIONALS, DYADIC):
            num, den = obj
            return canon_payload(spec, Fraction(_json_int(num), _json_int(den)))
        if spec.kind == LAURENT2:
            terms = [((_json_int(i), _json_int(j)), Fraction(_json_int(num), _json_int(den)))
                     for (i, j), (num, den) in obj]
            return canon_payload(spec, terms)
        base = spec.base
        k = spec.k
        assert base is not None and k is not None
        if not isinstance(obj, list) or len(obj) > k:
            raise IllFormed(f"truncated payload needs at most {k} coefficients")
        return canon_payload(spec, [payload_from_json(base, c) for c in obj])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise IllFormed(f"bad payload {obj!r} for {spec}: {exc}") from exc


# ---------------------------------------------------------------------------
# public element wrapper
# ---------------------------------------------------------------------------


class RingElem(_Frozen):
    """Immutable element of one of the supported rings.

    Arithmetic operators require both operands over the same ``RingSpec``
    (ints and Fractions coerce through the canonical embedding).  Equality
    is exact ring equality because payloads are canonical.
    """

    __slots__ = ("spec", "payload")

    def __init__(self, spec: RingSpec, payload: Any, *, _raw: bool = False):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "payload", payload if _raw else canon_payload(spec, payload))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> "RingElem":
        return cls(spec, spec.zero, _raw=True)

    @classmethod
    def one(cls, spec: RingSpec) -> "RingElem":
        return cls(spec, spec.one, _raw=True)

    @classmethod
    def from_fraction(cls, spec: RingSpec, q: Fraction | int) -> "RingElem":
        return cls(spec, _frac(q))

    @classmethod
    def monomial(cls, coeff: Fraction | int, t_exp: int = 0, z_exp: int = 0) -> "RingElem":
        """Laurent monomial coeff * t^t_exp * z^z_exp."""
        return cls(RingSpec.laurent2(), [((t_exp, z_exp), coeff)])

    @classmethod
    def series(cls, spec: RingSpec, coeffs: Iterable[Any]) -> "RingElem":
        """Truncated-ring element from its coefficient list, constant first."""
        if spec.kind != TRUNC_NIL:
            raise SpecMismatch(f"series constructor needs a truncated ring, got {spec}")
        cooked = [c.payload if isinstance(c, RingElem) else c for c in coeffs]
        return cls(spec, cooked)

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other: Any) -> "RingElem | None":
        if isinstance(other, RingElem):
            if other.spec != self.spec:
                raise SpecMismatch(f"mixed rings {self.spec} and {other.spec}")
            return other
        if isinstance(other, (int, Fraction)):
            return RingElem.from_fraction(self.spec, other)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Any) -> "RingElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(self.spec, self.spec.ops.add(self.payload, o.payload), _raw=True)

    __radd__ = __add__

    def __neg__(self) -> "RingElem":
        return RingElem(self.spec, self.spec.ops.neg(self.payload), _raw=True)

    def __sub__(self, other: Any) -> "RingElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Any) -> "RingElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Any) -> "RingElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(self.spec, self.spec.ops.mul(self.payload, o.payload), _raw=True)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "RingElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other: Any) -> "RingElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int) -> "RingElem":
        if n < 0:
            return self.inv() ** (-n)
        out = RingElem.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self) -> "RingElem":
        """Multiplicative inverse; raises NonUnit when there is none."""
        return RingElem(self.spec, _inv(self.spec, self.payload), _raw=True)

    def involute(self) -> "RingElem":
        """Apply the ring involution (identity except on Laurent variables)."""
        return RingElem(self.spec, self.spec.ops.involute(self.payload), _raw=True)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.spec.ops.is_zero(self.payload)

    def is_unit(self) -> bool:
        return _is_unit(self.spec, self.payload)

    def is_nilpotent(self) -> bool:
        return _is_nilpotent(self.spec, self.payload)

    # -- misc ---------------------------------------------------------------

    def substitute(self, t: "RingElem | None" = None, z: "RingElem | None" = None) -> "RingElem":
        """Substitute Laurent variables; unassigned variables stay symbolic.

        Values must be elements of the same Laurent ring; the caller is
        responsible for unit checks when inverting exponents requires them
        (negative exponents of a non-unit value raise NonUnit).
        """
        if self.spec.kind != LAURENT2:
            raise SpecMismatch("substitution is a Laurent-ring operation")
        t_val = t if t is not None else RingElem.monomial(1, t_exp=1)
        z_val = z if z is not None else RingElem.monomial(1, z_exp=1)
        out = RingElem.zero(self.spec)
        for (i, j), c in self.payload:
            out = out + RingElem.from_fraction(self.spec, c) * t_val**i * z_val**j
        return out

    def to_json(self) -> Any:
        return payload_to_json(self.spec, self.payload)

    @classmethod
    def from_json(cls, spec: RingSpec, obj: Any) -> "RingElem":
        return cls(spec, payload_from_json(spec, obj), _raw=True)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (int, Fraction)):
            try:
                other = RingElem.from_fraction(self.spec, other)
            except (NonUnit, IllFormed):
                return False
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.spec == other.spec and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.spec, self.payload))

    def __repr__(self) -> str:
        return f"<{payload_repr(self.spec, self.payload)} over {self.spec}>"


def nil_generator(spec: RingSpec) -> RingElem:
    """The class of x in B[x]/(x^k); zero when k = 1."""
    if spec.kind != TRUNC_NIL:
        raise SpecMismatch(f"nil generator lives in a truncated ring, not {spec}")
    return RingElem(spec, [0, 1])  # canon_payload cuts it to k coefficients
