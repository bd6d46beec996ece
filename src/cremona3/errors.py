"""Exception hierarchy for the package.

Two broad categories matter to callers: :class:`ParseError` (bad input
text) and :class:`DomainError` (a value violates a mathematical
precondition).  The command line maps them to exit codes 2 and 3.
"""


class Cremona3Error(Exception):
    """Base class for every error raised by this package."""


class DomainError(Cremona3Error):
    """A value violates a mathematical precondition of an operation."""


class DimensionMismatch(DomainError):
    """Operands live in polynomial rings of different dimensions."""


class ArityMismatch(DomainError):
    """A substitution or map literal has the wrong number of components."""


class IndexOutOfRange(DomainError):
    """A variable index is not in ``0 .. dimension - 1``."""


class BoundExceeded(DomainError):
    """An iteration did not terminate within the given bound.

    Signals that the derivation may not be locally nilpotent, or that
    the bound should be raised.
    """


class NotInKernelRing(DomainError):
    """The polynomial is not of the form c(z, xz - y^2/2)."""


class NotMonomialInK(DomainError):
    """The polynomial is not a nonzero scalar multiple of a single
    monomial p*(p*z^2)^k."""


class NotInCentralizer(DomainError):
    """The map does not commute with the degree-one shear."""


class MalformedCentralizerElement(DomainError):
    """A map commutes with the shear but cannot be split into
    (scalar, x-shift, kernel shear).

    This contradicts the decomposition theorem for genuine automorphisms,
    so it means either the input was not an automorphism or there is an
    implementation bug.  Never swallow it silently.
    """


class InvalidGenerator(DomainError):
    """A generator violates its construction invariant (singular matrix,
    broken triangular shape, non-kernel exponent, zero scalar)."""


class ParseError(Cremona3Error):
    """Input text does not match the expression grammar."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        self._message = message  # without the position, to place it again
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnknownVariable(ParseError):
    """A name in the input is not among the active variable names."""
