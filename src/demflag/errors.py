"""Error taxonomy shared across the package.

Two families: ``InputError`` for malformed requests (unknown type labels,
out-of-range node indices) and ``DomainError`` for requests that are well
formed but mathematically out of domain (non-dominant weights, zero level,
and so on).  The command line maps the families to distinct exit codes.
"""


class DemflagError(Exception):
    """Base class for every error raised by this package."""


class InputError(DemflagError):
    """Malformed input: the request could never be valid."""


class UnknownType(InputError):
    """Series/rank pair outside the finite Cartan-Killing tables."""


class IndexOutOfRange(InputError):
    """Node index not present in the datum's index set."""


class DomainError(DemflagError):
    """Well-formed input outside the mathematical domain of an operation."""


class ZeroLevel(DomainError):
    """Affine weight of non-positive level where positive level is required."""


class TooLarge(DomainError):
    """Result too large to be computed within a fixed bound."""


class NotDominant(DomainError):
    """Weight fails dominance where a dominant weight is required."""


class SimplyLaced(DomainError):
    """Datum is simply laced but a short-root subsystem was requested."""


class NotSimplyLaced(DomainError):
    """Datum is not simply laced where a simply-laced one is required."""


class NotBelow(DomainError):
    """Weight is not below the reference weight in dominance order."""


class NegativeMultiplicity(DomainError):
    """Leading coefficient of a would-be flag piece is negative."""


class NonDominantLeading(DomainError):
    """Character is not Weyl invariant grade by grade, so no flag exists."""
