"""Exception types shared across the toolkit.

Every error raised on bad *input* derives from ``WittkitError`` so the CLI
can map it to a validation failure.  A violated internal algebraic
identity raises ``IdentityViolated``, an ``AssertionError`` subclass: it
indicates a bug, not bad data, and is raised explicitly so that the check
still runs under ``python -O``.
"""

from __future__ import annotations


class WittkitError(Exception):
    """Base class for input-level errors."""


class SpecMismatch(WittkitError):
    """Operands live over different rings, or over an unsupported ring."""


class NonUnit(WittkitError):
    """Inversion of an element that is not a unit of its ring."""


class NotNilpotent(WittkitError):
    """An argument required to be nilpotent has a nonzero semisimple part."""


class DegenerateForm(WittkitError):
    """Gram determinant is not a unit."""


class OddRank(WittkitError):
    """A symplectic operation was applied to an odd-rank form."""


class OracleInconclusive(WittkitError):
    """A bounded search ended without a certificate either way."""


class NotClosed(WittkitError):
    """A generating set is not closed under the requested operations."""


class NonUnitAssignment(WittkitError):
    """A substitution assigned a non-unit value to an invertible variable."""


class NotCatalogued(WittkitError):
    """Lookup key has no entry in the shipped catalog."""


class IllFormed(WittkitError):
    """A structured input (matrix, sequence, chain, descriptor) is malformed."""


class NotALift(WittkitError):
    """The candidate does not reduce to the prescribed object."""


class NotUnitaryMod(WittkitError):
    """The reduction of the candidate is not unitary over the base ring."""


class NotCongruent(WittkitError):
    """The two involutions do not agree modulo the nilpotent ideal."""


class BudgetExceeded(WittkitError):
    """An input would take a computation past its stated work bound."""


class IdentityViolated(AssertionError):
    """An exact identity the computation guarantees failed to hold."""
