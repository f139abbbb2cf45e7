"""The immutable records: construction, validation, ==, hash, repr, pickling.

The repr strings are pinned from the frozen dataclasses these classes used
to be, so they must stay byte for byte what ``dataclasses`` printed.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from wittkit.bott import BottData
from wittkit.errors import IllFormed
from wittkit.forms import GramForm, WittDecomposition, diagonalize
from wittkit.invariants import WittClass, WittRingTable, witt_class
from wittkit.lifting import SelfAdjInvolution
from wittkit.matrices import InvMatrix
from wittkit.rings import RingElem, RingSpec
from wittkit.stabilization import CatalogEntry, ColimResult, FgAbGroup, GroupHom, GroupSeq

Q = RingSpec("q")
F7 = RingSpec.prime_field(7)
L2 = RingSpec.laurent2()
ONE = RingElem.one(L2)
I1 = InvMatrix.identity(L2, 1)
G = FgAbGroup(1, (2,))
ENDO = GroupHom(G, G, ((1, 0), (0, 1)))
TABLE = (("0", "<1>"), ("<1>", "0"))


@dataclass
class Case:
    cls: type
    args: tuple  # positional construction
    kwargs: dict  # the same record by keyword
    other: Any  # a record of the class that differs
    pinned_repr: str
    invalid: Callable[[], Any] | None = None  # a construction that must raise IllFormed


CASES = [
    Case(RingSpec, ("truncnil", None, Q, 2), {"kind": "truncnil", "base": Q, "k": 2},
         RingSpec("truncnil", None, Q, 3),
         "RingSpec(kind='truncnil', p=None, base=RingSpec(kind='q', p=None, base=None, k=None), k=2)",
         lambda: RingSpec("fp", 9)),
    Case(BottData, (I1, I1, I1, ONE, ONE, ONE, ONE, I1),
         {"p0": I1, "u": I1, "p": I1, "a": ONE, "b": ONE, "c": ONE, "d": ONE, "m": I1},
         BottData(I1, I1, I1, ONE, ONE, ONE, ONE, -I1),
         "BottData(p0=<1x1 [1] over laurent2>, u=<1x1 [1] over laurent2>, p=<1x1 [1] over laurent2>, "
         "a=<1 over laurent2>, b=<1 over laurent2>, c=<1 over laurent2>, d=<1 over laurent2>, "
         "m=<1x1 [1] over laurent2>)"),
    Case(WittDecomposition, (1, GramForm.diagonal(F7, [3]), InvMatrix.identity(F7, 3), True),
         {"hyperbolic_rank": 1, "anisotropic": GramForm.diagonal(F7, [3]),
          "change_of_basis": InvMatrix.identity(F7, 3), "certified": True},
         WittDecomposition(1, GramForm.diagonal(F7, [3]), InvMatrix.identity(F7, 3), False),
         "WittDecomposition(hyperbolic_rank=1, anisotropic=GramForm(fp:7, eps=+1, diag=[<3 over fp:7>]), "
         "change_of_basis=<3x3 [1, 0, 0; 0, 1, 0; 0, 0, 1] over fp:7>, certified=True)"),
    Case(WittClass, (Q, 1, 1, 2, ((2, -1),)),
         {"ring": Q, "dim_mod2": 1, "signature": 1, "disc": 2, "hasse": ((2, -1),)},
         WittClass(Q, 1, 1, 2),
         "WittClass(ring=RingSpec(kind='q', p=None, base=None, k=None), dim_mod2=1, signature=1, disc=2, "
         "hasse=((2, -1),), dyadic_disc_parity=0)"),
    Case(WittRingTable, (F7, "Z/2", ("<1>",), ("0", "<1>"), TABLE, TABLE),
         {"ring": F7, "group": "Z/2", "generators": ("<1>",), "classes": ("0", "<1>"), "add": TABLE,
          "mul": TABLE, "free_generator": None},
         WittRingTable(F7, "Z/2", ("<1>",), ("0", "<1>"), TABLE, TABLE, torsion_generator="<1>"),
         "WittRingTable(ring=RingSpec(kind='fp', p=7, base=None, k=None), group='Z/2', generators=('<1>',), "
         "classes=('0', '<1>'), add=(('0', '<1>'), ('<1>', '0')), mul=(('0', '<1>'), ('<1>', '0')), "
         "free_generator=None, torsion_generator=None)"),
    Case(SelfAdjInvolution, (InvMatrix.from_rows(Q, [[0, 1], [1, 0]]),),
         {"j": InvMatrix.from_rows(Q, [[0, 1], [1, 0]])},
         SelfAdjInvolution(InvMatrix.from_rows(Q, [[1, 0], [0, -1]])),
         "SelfAdjInvolution(j=<2x2 [0, 1; 1, 0] over q>)",
         lambda: SelfAdjInvolution(InvMatrix.from_rows(Q, [[0, 2], [1, 0]]))),
    Case(FgAbGroup, (1, (2,)), {"free_rank": 1, "torsion": (2,)}, FgAbGroup(1),
         "FgAbGroup(free_rank=1, torsion=(2,))",
         lambda: FgAbGroup(0, (2, 3))),
    Case(GroupHom, (FgAbGroup(1), FgAbGroup(0, (2,)), ((3,),)),
         {"source": FgAbGroup(1), "target": FgAbGroup(0, (2,)), "matrix": ((1,),)},
         GroupHom(FgAbGroup(1), FgAbGroup(0, (2,)), ((0,),)),
         "GroupHom(source=FgAbGroup(free_rank=1, torsion=()), target=FgAbGroup(free_rank=0, torsion=(2,)), "
         "matrix=((1,),))",
         lambda: GroupHom(FgAbGroup(0, (2,)), FgAbGroup(1), ((1,),))),
    Case(GroupSeq, ((), ENDO), {"prefix": (), "period_map": ENDO},
         GroupSeq((GroupHom(FgAbGroup(1), G, ((1,), (0,))),), ENDO),
         "GroupSeq(prefix=(), period_map=GroupHom(source=FgAbGroup(free_rank=1, torsion=(2,)), "
         "target=FgAbGroup(free_rank=1, torsion=(2,)), matrix=((1, 0), (0, 1))))",
         lambda: GroupSeq((), GroupHom(FgAbGroup(1), G, ((1,), (0,))))),
    Case(ColimResult, (1, (2,), (3,)), {"rank": 1, "inverted_primes": (2,), "torsion": (3,)},
         ColimResult(1, (2,)),
         "ColimResult(rank=1, inverted_primes=(2,), torsion=(3,))"),
    Case(CatalogEntry, ("W", 0, "dyadic", 1, G, "Witt", None),
         {"theory": "W", "n": 0, "ring": "dyadic", "epsilon": 1, "group": G, "citation": "Witt"},
         CatalogEntry("W", 0, "dyadic", 1, G, "Witt", "a note"),
         "CatalogEntry(theory='W', n=0, ring='dyadic', epsilon=1, group=FgAbGroup(free_rank=1, torsion=(2,)), "
         "citation='Witt', note=None)"),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.cls.__name__)
def test_record_behaves_as_the_frozen_dataclass_did(case):
    rec = case.cls(*case.args)
    same = case.cls(**case.kwargs)
    assert type(rec) is type(same) is type(case.other) is case.cls
    assert rec == same and not rec != same and rec == rec and not rec != rec
    assert hash(rec) == hash(same)
    assert rec != case.other and not rec == case.other
    assert rec != case.args and rec != None  # noqa: E711
    assert repr(rec) == repr(same) == case.pinned_repr
    if case.invalid is not None:
        with pytest.raises(IllFormed):
            case.invalid()
    field = next(iter(case.kwargs))
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    for clone in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is case.cls
        assert clone == rec and hash(clone) == hash(rec) and repr(clone) == case.pinned_repr


def test_disc_primes_and_ops_stay_out_of_eq_hash_and_repr():
    known = WittClass(Q, 1, 1, 6, disc_primes=frozenset({2, 3}))
    unknown = WittClass(Q, 1, 1, 6)
    assert known == unknown and hash(known) == hash(unknown) and repr(known) == repr(unknown)
    assert "disc_primes" not in repr(known)
    for clone in (pickle.loads(pickle.dumps(known)), copy.deepcopy(known)):
        assert clone.disc_primes == frozenset({2, 3})
    assert known.to_json() == unknown.to_json()

    spec = RingSpec.prime_field(7)
    again = RingSpec("fp", p=7)
    assert spec.ops is not again.ops and spec == again and hash(spec) == hash(again)
    assert "ops" not in repr(spec)
    for clone in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert clone == spec and clone.ops.mul(3, 5) == 1


def test_a_forms_kept_diagonalization_and_class_stay_out_of_the_record():
    # a symmetric form over F_p or Q keeps the diagonalization that proved
    # it nondegenerate from construction on; over Z[1/2], a skew form, and
    # a diagonal of units keep none until asked
    for spec, eps, rows, kept in ((F7, 1, [[1, 2], [2, 3]], True), (RingSpec("dyadic"), 1, [[1, 2], [2, 3]], False),
                                  (Q, -1, [[0, 1], [-1, 0]], False), (F7, -1, [[0, 1], [6, 0]], False),
                                  (Q, 1, [[1, 0], [0, 2]], False)):
        assert (GramForm.from_rows(spec, rows, eps)._diag is not None) == kept, (spec, eps, rows)
    rows = [[1, 2], [2, -3]]
    f, fresh = GramForm.from_rows(Q, rows), GramForm.from_rows(Q, rows)
    pair = f._diag
    cls = witt_class(f)
    assert diagonalize(f) is pair and f._class is cls and fresh._diag == pair and fresh._class is None
    pinned = "GramForm(q, eps=+1, gram=<2x2 [1, 2; 2, -3] over q>)"
    assert f == fresh and not f != fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh) == pinned
    for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert type(clone) is GramForm
        assert clone == f and hash(clone) == hash(f) and repr(clone) == pinned
        assert clone._class == cls and clone._diag == pair
        assert witt_class(clone) == cls and diagonalize(clone) == pair
    for name in ("gram", "_diag", "_class"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    with pytest.raises(AttributeError):
        f.not_a_field = 1
    assert f._diag is pair and f._class is cls
