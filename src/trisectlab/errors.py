"""Shared exception types.

The CLI maps these onto exit codes: bad inputs exit 2, exceeded caps
exit 3, falsified invariants exit 1.
"""


def int_text(n: int) -> str:
    """An integer for an error message: in decimal below 10^100, else as
    the power of two it reaches, since ``str`` refuses an int of more than
    4300 digits with a ``ValueError``."""
    return str(n) if abs(n) < 10 ** 100 else f"at least 2^{n.bit_length() - 1}"


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class BadParameters(WorkbenchError):
    """Operation preconditions not met by the supplied arguments."""


class CapExceeded(WorkbenchError):
    """An enumeration or degree cap would be exceeded."""


class ZeroDenominator(BadParameters):
    """Denominator of a field element is zero."""


class NonSquarefreeRadicand(BadParameters):
    """Radicand has a square factor or is below 2."""


class RadicandMismatch(BadParameters):
    """Binary operation on elements of different quadratic fields."""


class DegenerateBasis(BadParameters):
    """Claimed basis vectors are linearly dependent over the rationals."""


class NotPrime(BadParameters):
    """Argument required to be prime is not."""


class NotOddPrime(NotPrime):
    """Argument required to be an odd prime is not."""


class NotCoprime(BadParameters):
    """Arguments required to be coprime are not."""


class OutOfRange(BadParameters):
    """Value lies outside the closed interval [-2, 2]."""


class GcdBoundViolated(WorkbenchError):
    """The image gcd exceeded its divisor bound; a falsification, not a
    user error."""
