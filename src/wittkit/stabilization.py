"""Colimits of eventually-periodic systems of finitely generated abelian groups.

The systems handled here all look the same: a finite prefix of maps
feeding an endomorphism iterated forever.  The direct limit of such a
system is determined by the periodic part alone (cofinality), and it is
reported as a triple (rank, inverted primes, torsion): the free part
stabilizes to a localized lattice Z[1/S]^rank where S collects the prime
divisors of the period map's determinant on its eventual image, and the
torsion part is the eventual image of the map A on the torsion subgroup
G.  Each image A^(k+1) G that differs from A^k G has at most half its
order, and once two agree all later ones do, so A^M G is the eventual
image for any M >= log2 |G|: L / D Z^s for L = A^M Z^s + D Z^s, with A^M
by repeated squaring.  The Hermite form of L, checked against that of
A^(M+1) Z^s + D Z^s, presents it: the d_i e_i on L's triangular basis.

Groups are kept in canonical coordinates throughout: free generators
first, then one generator per invariant factor.  Homomorphism matrices
are always written on these generators, columns indexed by the source.

A small read-only catalog of literature-sourced group values ships with
the package; ``catalog_lookup`` is the only way to obtain them and there
is deliberately no API for adding entries at runtime.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

from .errors import IdentityViolated, IllFormed, NotCatalogued
from .intlinalg import (
    IntMatrix,
    columns_to_matrix,
    hermite_form,
    identity_int,
    int_det,
    int_inverse_unimodular,
    kernel_basis_int,
    lattice_equal,
    matmul_int,
    prime_factors,
    smith_normal_form,
    solve_int,
)
from .rings import _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Sequence

__all__ = [
    "CatalogEntry",
    "ColimResult",
    "FgAbGroup",
    "GroupHom",
    "GroupSeq",
    "catalog_lookup",
    "colimit",
    "exactness_check",
    "shift",
    "shift_invariance_check",
    "smith_normal_form",
    "tensor_with_dyadic",
]


# ---------------------------------------------------------------------------
# groups and maps
# ---------------------------------------------------------------------------


class FgAbGroup(_Record):
    """Finitely generated abelian group in canonical form.

    ``torsion`` holds the invariant factors, each > 1 and dividing the
    next.  Two presentations reducing to the same canonical form compare
    equal.  Use ``of`` or ``from_presentation`` to construct from
    non-canonical data.
    """

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        if isinstance(free_rank, bool) or not isinstance(free_rank, int) or free_rank < 0:
            raise IllFormed(f"free rank must be a nonnegative integer, got {free_rank!r}")
        if not isinstance(torsion, (list, tuple)):
            raise IllFormed(f"invariant factors must be a list or tuple, got {torsion!r}")
        torsion, prev = tuple(torsion), 1
        for d in torsion:
            if isinstance(d, bool) or not isinstance(d, int) or d <= 1:
                raise IllFormed(f"invariant factors must be integers > 1, got {d!r}")
            if d % prev:
                raise IllFormed(f"invariant factors must divide in order, got {torsion}")
            prev = d
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def of(cls, rank: int, torsion: Sequence[int] = ()) -> "FgAbGroup":
        """Build from a rank and any list of cyclic orders (1s are dropped,
        the rest is renormalized to a dividing chain in a presentation of
        its own, so the work does not grow with the rank)."""
        if not isinstance(torsion, (list, tuple)):
            raise IllFormed(f"cyclic orders must be a list or tuple, got {torsion!r}")
        for d in torsion:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise IllFormed(f"cyclic orders must be positive integers, got {d!r}")
        keep = [d for d in torsion if d > 1]
        k = len(keep)
        cols = [[d if i == j else 0 for i in range(k)] for j, d in enumerate(keep)]
        return cls(rank, cls.from_presentation(k, cols).torsion)

    @classmethod
    def from_presentation(cls, n: int, relation_columns: Sequence[Sequence[int]]) -> "FgAbGroup":
        """Z^n modulo the span of the given relation columns."""
        if n < 0:
            raise IllFormed("a presentation needs a nonnegative generator count")
        cols = [list(c) for c in relation_columns]
        for c in cols:
            if len(c) != n:
                raise IllFormed(f"relation column of length {len(c)} in a rank-{n} presentation")
        if not cols:
            return cls(n)
        _, d, _ = smith_normal_form(columns_to_matrix(cols, n))
        diag = [d[i][i] for i in range(min(n, len(cols)))]
        nonzero = [x for x in diag if x]
        return cls(n - len(nonzero), tuple(x for x in nonzero if x > 1))

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def orders(self) -> tuple[int, ...]:
        """Per-generator orders, 0 meaning infinite."""
        return (0,) * self.free_rank + self.torsion

    @property
    def is_trivial(self) -> bool:
        return self.ngens == 0

    def relation_columns(self) -> list[list[int]]:
        n = self.ngens
        return [
            [d if i == self.free_rank + j else 0 for i in range(n)]
            for j, d in enumerate(self.torsion)
        ]

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj: Any) -> "FgAbGroup":
        if not isinstance(obj, dict) or set(obj) - {"rank", "torsion"}:
            raise IllFormed(f"a group is {{'rank': r, 'torsion': [...]}}, got {obj!r}")
        rank = obj.get("rank", 0)
        torsion = obj.get("torsion", [])
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise IllFormed(f"rank must be an integer, got {rank!r}")
        if not isinstance(torsion, list):
            raise IllFormed(f"torsion must be a list, got {torsion!r}")
        return cls.of(rank, torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return "+".join(parts) if parts else "0"


class GroupHom(_Record):
    """Homomorphism between canonical-coordinate groups.

    ``matrix[i][j]`` is the i-th target coordinate of the image of the
    j-th source generator.  Construction checks well-definedness: a
    source generator of order d must land where d kills it, so torsion
    never maps to free coordinates and entries into a target factor of
    order e are constrained mod e/gcd(e, d).  Entries in torsion rows
    are stored reduced, making equality canonical.
    """

    __slots__ = _fields = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: tuple[tuple[int, ...], ...]):
        rows = [list(r) for r in matrix]
        if len(rows) != target.ngens or any(len(r) != source.ngens for r in rows):
            raise IllFormed(
                f"map matrix must be {target.ngens} x {source.ngens}, "
                f"got {len(rows)} row(s)"
            )
        for r in rows:
            for x in r:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise IllFormed(f"matrix entries must be integers, got {x!r}")
        tgt_orders = target.orders
        # only torsion generators constrain the matrix; a free rank the
        # target's rows cannot bound (no rows at all) is never enumerated
        for j, d in enumerate(source.torsion, source.free_rank):
            for i, e in enumerate(tgt_orders):
                if e == 0:
                    if rows[i][j] != 0:
                        raise IllFormed(
                            f"generator {j} of order {d} cannot hit free coordinate {i}"
                        )
                elif (d * rows[i][j]) % e:
                    raise IllFormed(
                        f"entry [{i}][{j}] = {rows[i][j]} does not respect the order-{d} "
                        f"relation in a Z/{e} coordinate"
                    )
        for i, e in enumerate(tgt_orders):
            if e:
                rows[i] = [x % e for x in rows[i]]
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, group: FgAbGroup) -> "GroupHom":
        return cls(group, group, tuple(map(tuple, identity_int(group.ngens))))

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> "GroupHom":
        return cls(source, target, tuple((0,) * source.ngens for _ in range(target.ngens)))

    def compose(self, first: "GroupHom") -> "GroupHom":
        """self after first."""
        if first.target != self.source:
            raise IllFormed("maps do not compose")
        prod = matmul_int([list(r) for r in self.matrix], [list(r) for r in first.matrix])
        return GroupHom(first.source, self.target, tuple(tuple(r) for r in prod))

    def free_block(self) -> IntMatrix:
        rt, rs = self.target.free_rank, self.source.free_rank
        return [[self.matrix[i][j] for j in range(rs)] for i in range(rt)]

    def torsion_block(self) -> IntMatrix:
        rt, rs = self.target.free_rank, self.source.free_rank
        st, ss = len(self.target.torsion), len(self.source.torsion)
        return [[self.matrix[rt + i][rs + j] for j in range(ss)] for i in range(st)]

    def to_json(self) -> list:
        return [list(r) for r in self.matrix]


class GroupSeq(_Record):
    """Eventually-periodic system: a composable prefix feeding an endomorphism."""

    __slots__ = _fields = ("prefix", "period_map")

    def __init__(self, prefix: tuple[GroupHom, ...], period_map: GroupHom):
        if period_map.source != period_map.target:
            raise IllFormed("the period map must be an endomorphism")
        chain = list(prefix)
        for i in range(len(chain) - 1):
            if chain[i].target != chain[i + 1].source:
                raise IllFormed(f"prefix breaks between positions {i} and {i + 1}")
        if chain and chain[-1].target != period_map.source:
            raise IllFormed("prefix must end at the period group")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period_map", period_map)

    @property
    def period_group(self) -> FgAbGroup:
        return self.period_map.source

    def to_json(self) -> dict:
        out: dict[str, Any] = {"prefix": [], "period": {
            "group": self.period_group.to_json(),
            "map": self.period_map.to_json(),
        }}
        for hom in self.prefix:
            out["prefix"].append({"group": hom.source.to_json(), "map": hom.to_json()})
        return out

    @classmethod
    def from_json(cls, obj: Any) -> "GroupSeq":
        if not isinstance(obj, dict) or "period" not in obj or set(obj) - {"prefix", "period"}:
            raise IllFormed("a sequence is {'prefix': [...], 'period': {...}}")
        period = obj["period"]
        if not isinstance(period, dict) or set(period) - {"group", "map"} or "group" not in period:
            raise IllFormed("the period is {'group': ..., 'map': [[...]]}")
        pg = FgAbGroup.from_json(period["group"])
        pmap = GroupHom(pg, pg, _matrix_from_json(period.get("map", [])))
        raw_prefix = obj.get("prefix", [])
        if not isinstance(raw_prefix, list):
            raise IllFormed("the prefix must be a list")
        groups = []
        mats = []
        for entry in raw_prefix:
            if not isinstance(entry, dict) or set(entry) - {"group", "map"} or "group" not in entry:
                raise IllFormed("each prefix entry is {'group': ..., 'map': [[...]]}")
            groups.append(FgAbGroup.from_json(entry["group"]))
            mats.append(_matrix_from_json(entry.get("map", [])))
        homs = []
        for i, (g, m) in enumerate(zip(groups, mats)):
            nxt = groups[i + 1] if i + 1 < len(groups) else pg
            homs.append(GroupHom(g, nxt, m))
        return cls(tuple(homs), pmap)


def _matrix_from_json(obj: Any) -> tuple[tuple[int, ...], ...]:
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise IllFormed(f"a map is a list of integer rows, got {obj!r}")
    return tuple(tuple(r) for r in obj)


# ---------------------------------------------------------------------------
# colimits
# ---------------------------------------------------------------------------


class ColimResult(_Record):
    """Direct limit reported as (Z with inverted_primes inverted)^rank + torsion.

    The inverted primes belong to the free part only; torsion is listed
    by invariant factors as an ordinary finite group.  An empty prime
    set means the limit is finitely generated over Z.
    """

    __slots__ = _fields = ("rank", "inverted_primes", "torsion")

    def __init__(self, rank: int, inverted_primes: tuple[int, ...] = (), torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "inverted_primes", inverted_primes)
        object.__setattr__(self, "torsion", torsion)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "inverted_primes": list(self.inverted_primes),
            "torsion": list(self.torsion),
        }

    def __str__(self) -> str:
        if self.inverted_primes:
            m = 1
            for p in self.inverted_primes:
                m *= p
            base = f"Z[1/{m}]"
        else:
            base = "Z"
        parts = []
        if self.rank == 1:
            parts.append(base)
        elif self.rank > 1:
            parts.append(f"{base}^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return "+".join(parts) if parts else "0"


def _free_colimit(g: GroupHom) -> tuple[int, tuple[int, ...]]:
    r = g.source.free_rank
    if r == 0:
        return 0, ()
    f = g.free_block()
    fr = reduce(matmul_int, [f] * r)
    # the Hermite form of the rows (row i of F^r, e_i) is (U F^r, U), U
    # unimodular, its rho rows with U F^r != 0 first; the first rho columns
    # of U^-1 then span colspan_Q(F^r) intersected with Z^r
    h = hermite_form([[*row, *e] for row, e in zip(fr, identity_int(r))], 2 * r)
    rho = sum(1 for row in h if any(row[:r]))
    if rho == 0:
        return 0, ()
    ui = int_inverse_unimodular([row[r:] for row in h])
    basis = [[ui[i][j] for j in range(rho)] for i in range(r)]
    restricted = solve_int(basis, matmul_int(f, basis))
    if restricted is None:
        raise IdentityViolated("the period map must preserve its eventual image")
    delta = int_det(restricted)
    if delta == 0:
        raise IdentityViolated("the period map is invertible on its eventual image")
    return rho, tuple(prime_factors(delta))


def _torsion_colimit(g: GroupHom) -> tuple[int, ...]:
    factors = g.source.torsion
    if not factors:
        return ()
    s = len(factors)
    diag = [[d if j == i else 0 for j in range(s)] for i, d in enumerate(factors)]

    def times(x: IntMatrix, y: IntMatrix) -> IntMatrix:  # row i mod d_i, as GroupHom.compose stores it
        return [[v % d for v in row] for row, d in zip(matmul_int(x, y), factors)]

    a = g.torsion_block()
    steps = math.prod(factors).bit_length() - 1  # floor(log2 |G|)
    power, m = a, 1
    while m < steps:
        power, m = times(power, power), 2 * m
    # the Hermite basis rows of L = A^M Z^s + D Z^s, and of the next lattice
    h = hermite_form([*zip(*power), *diag], s)
    if hermite_form([*zip(*times(a, power)), *diag], s) != h:
        raise IdentityViolated("the torsion image settles within log2 |G| steps")
    # the relations d_i e_i on the basis h of L, solved down its triangle
    x = [[0] * s for _ in factors]
    for row, rel in zip(x, diag):
        for j in range(s):
            row[j] = (rel[j] - sum(row[k] * h[k][j] for k in range(j))) // h[j][j]
    return FgAbGroup.from_presentation(s, x).torsion


def colimit(seq: GroupSeq) -> ColimResult:
    """Direct limit of the system; the prefix is absorbed by cofinality.

    The torsion is A^M G for the period map's torsion block A on G, the sum
    of the Z/d_i, with M >= log2 |G|: L / D Z^s for L = A^M Z^s + D Z^s.
    IdentityViolated if A^(M+1) Z^s + D Z^s has another Hermite form.
    """
    rank, primes = _free_colimit(seq.period_map)
    torsion = _torsion_colimit(seq.period_map)
    return ColimResult(rank=rank, inverted_primes=tuple(sorted(primes)), torsion=torsion)


def shift(seq: GroupSeq, k: int) -> GroupSeq:
    """Drop the first k arrows; shifts inside the periodic part are no-ops."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise IllFormed(f"shift count must be a nonnegative integer, got {k!r}")
    return GroupSeq(seq.prefix[k:], seq.period_map)


def shift_invariance_check(seq: GroupSeq, k: int) -> bool:
    """Whether the colimit is unchanged k steps along."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise IllFormed(f"shift count must be a positive integer, got {k!r}")
    return colimit(seq) == colimit(shift(seq, k))


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------


def _image_lattice(h: GroupHom) -> IntMatrix:
    rel = h.target.relation_columns()
    return [[*row, *(c[i] for c in rel)] for i, row in enumerate(h.matrix)]


def _kernel_lattice(h: GroupHom) -> IntMatrix:
    n = h.source.ngens
    rel = h.target.relation_columns()
    stacked = [list(h.matrix[i]) + [-rel[j][i] for j in range(len(rel))] for i in range(h.target.ngens)]
    cols = [vec[:n] for vec in kernel_basis_int(stacked, n + len(rel))]
    cols += h.source.relation_columns()
    return columns_to_matrix(cols, n)


def exactness_check(chain: Sequence[GroupHom]) -> list[int]:
    """Positions of interior nodes where image != kernel; empty means exact.

    Node i (1 <= i <= len(chain) - 1) sits between chain[i-1] and
    chain[i].  Image and kernel are compared as lattices over the node's
    canonical generators, relations included on both sides.
    """
    maps = list(chain)
    for i in range(len(maps) - 1):
        if maps[i].target != maps[i + 1].source:
            raise IllFormed(f"chain breaks between positions {i} and {i + 1}")
    failures = []
    for i in range(1, len(maps)):
        if not lattice_equal(_image_lattice(maps[i - 1]), _kernel_lattice(maps[i])):
            failures.append(i)
    return failures


# ---------------------------------------------------------------------------
# localization helper
# ---------------------------------------------------------------------------


def tensor_with_dyadic(x: "FgAbGroup | ColimResult") -> ColimResult:
    """Tensor with Z[1/2]: invert 2 on the free part, kill 2-torsion."""
    if isinstance(x, FgAbGroup):
        rank, primes, torsion = x.free_rank, (), x.torsion
    elif isinstance(x, ColimResult):
        rank, primes, torsion = x.rank, x.inverted_primes, x.torsion
    else:
        raise IllFormed(f"expected a group or colimit result, got {type(x).__name__}")
    odd = []
    for d in torsion:
        while d % 2 == 0:
            d //= 2
        if d > 1:
            odd.append(d)
    inverted = tuple(sorted({2, *primes})) if rank else ()
    return ColimResult(rank=rank, inverted_primes=inverted, torsion=tuple(odd))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


class CatalogEntry(_Record):
    __slots__ = _fields = ("theory", "n", "ring", "epsilon", "group", "citation", "note")

    def __init__(self, theory: str, n: int, ring: str, epsilon: int, group: FgAbGroup, citation: str,
                 note: str | None = None):
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "note", note)

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "key": {"theory": self.theory, "n": self.n, "ring": self.ring, "epsilon": self.epsilon},
            "group": self.group.to_json(),
            "citation": self.citation,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


@lru_cache(maxsize=1)
def _catalog() -> dict[tuple[str, int, str, int], CatalogEntry]:
    import json
    from importlib import resources  # pathlib, tempfile and more: load on first lookup only

    raw = json.loads(
        resources.files("wittkit").joinpath("data/catalog.json").read_text(encoding="utf-8")
    )
    table: dict[tuple[str, int, str, int], CatalogEntry] = {}
    for item in raw:
        key = item["key"]
        entry = CatalogEntry(
            theory=key["theory"],
            n=key["n"],
            ring=key["ring"],
            epsilon=key["epsilon"],
            group=FgAbGroup.from_json(item["group"]),
            citation=item["citation"],
            note=item.get("note"),
        )
        table[(entry.theory, entry.n, entry.ring, entry.epsilon)] = entry
    return table


def catalog_lookup(theory: str, n: int, ring: str, epsilon: int) -> CatalogEntry:
    """Fetch a catalogued group value; unknown keys are never invented."""
    key = (theory, n, ring, epsilon)
    entry = _catalog().get(key)
    if entry is None:
        known = ", ".join(str(k) for k in sorted(_catalog()))
        raise NotCatalogued(f"no catalogued value for {key}; catalogued keys: {known}")
    return entry
