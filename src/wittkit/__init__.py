"""Exact computation with epsilon-symmetric forms over small rings.

The package has four working layers, each importable on its own:

- ``rings`` / ``matrices``: exact scalars (prime fields, rationals,
  Z[1/2], a two-variable Laurent ring, truncated nilpotent extensions)
  and matrices over them, with involution-aware operations.
- ``forms`` / ``invariants``: diagonalization, Witt decomposition, and
  complete Witt-class invariants with the induced group structure.
- ``bott`` / ``lifting``: the explicit degree-(-2) periodicity matrix
  with its identity suite, and exact lifting of involutions and
  unitaries through nilpotent quotients.
- ``stabilization``: finitely generated abelian groups, colimits of
  eventually-periodic systems, exactness checking, and the literature
  catalog of known group values.

Everything is exact; no floats appear anywhere in the arithmetic.
"""

from .bott import BottData, build_bott, specialize, verify_bott_suite
from .errors import (
    BudgetExceeded,
    DegenerateForm,
    IllFormed,
    NonUnit,
    NonUnitAssignment,
    NotALift,
    NotCatalogued,
    NotClosed,
    NotCongruent,
    NotNilpotent,
    NotUnitaryMod,
    OddRank,
    OracleInconclusive,
    SpecMismatch,
    WittkitError,
)
from .forms import (
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
from .invariants import (
    WittClass,
    WittRingTable,
    hilbert_symbol,
    witt_class,
    witt_equiv,
    witt_ring_table,
)
from .lifting import (
    PROJECTION_CONVENTION,
    SelfAdjInvolution,
    associated_projection,
    conjugating_unitary,
    embed_constants,
    lift_involution,
    lift_unitary,
    reduce_mod_I,
    roundtrip_isomorphism_demo,
)
from .matrices import InvMatrix, inv_sqrt_one_plus
from .rings import RingElem, RingSpec, nil_generator
from .stabilization import (
    CatalogEntry,
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

__version__ = "0.1.0"

__all__ = [
    "BottData",
    "BudgetExceeded",
    "CatalogEntry",
    "ColimResult",
    "DegenerateForm",
    "FgAbGroup",
    "GramForm",
    "GroupHom",
    "GroupSeq",
    "IllFormed",
    "InvMatrix",
    "NonUnit",
    "NonUnitAssignment",
    "NotALift",
    "NotCatalogued",
    "NotClosed",
    "NotCongruent",
    "NotNilpotent",
    "NotUnitaryMod",
    "OddRank",
    "OracleInconclusive",
    "PROJECTION_CONVENTION",
    "RingElem",
    "RingSpec",
    "SelfAdjInvolution",
    "SpecMismatch",
    "WittClass",
    "WittDecomposition",
    "WittRingTable",
    "WittkitError",
    "associated_projection",
    "build_bott",
    "catalog_lookup",
    "colimit",
    "conjugating_unitary",
    "diagonalize",
    "embed_constants",
    "exactness_check",
    "hilbert_symbol",
    "hyperbolic",
    "interchange_isometry",
    "inv_sqrt_one_plus",
    "isotropy_oracle",
    "lift_involution",
    "lift_unitary",
    "nil_generator",
    "orth_sum",
    "reduce_mod_I",
    "roundtrip_isomorphism_demo",
    "shift",
    "shift_invariance_check",
    "smith_normal_form",
    "specialize",
    "symplectic_basis",
    "tensor",
    "tensor_with_dyadic",
    "verify_bott_suite",
    "witt_class",
    "witt_decompose",
    "witt_equiv",
    "witt_ring_table",
]
