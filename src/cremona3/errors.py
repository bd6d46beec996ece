"""Exception hierarchy for the package.

Two broad categories matter to callers: :class:`ParseError` (bad input
text) and :class:`DomainError` (a value violates a mathematical
precondition).  The command line maps them to exit codes 2 and 3.

An error that names its place in the input is raised as
``cls(message, line, column)``.  The place is data, :class:`Cremona3Error`
alone writes it into the text (``" (line L, column C)"``), and a caller
that knows a wider place raises ``type(exc)(exc._message, line, column)``.
"""


class Cremona3Error(Exception):
    """Base class for every error raised by this package."""

    # The place stays in args: an __init__ here would cost every raise a Python call.
    _message = property(lambda self: self.args[0])  # the text without the place
    line = property(lambda self: self.args[1] if len(self.args) > 1 else None)
    column = property(lambda self: self.args[2] if len(self.args) > 2 else None)

    def __str__(self):
        if self.line is None:
            return str(self._message)
        return f"{self._message} (line {self.line}, column {self.column})"


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


class UnknownVariable(ParseError):
    """A name in the input is not among the active variable names."""
