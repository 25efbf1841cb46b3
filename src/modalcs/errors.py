"""Exception types shared across the package."""


class ModalcsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(ModalcsError, ValueError):
    """An argument value violates a documented precondition."""


class NotSymmetric(InvalidArgument):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NonPositiveEigenvalue(ModalcsError):
    """The stiffness/mass pencil produced a zero or negative eigenvalue."""


class NonUniformSchedule(InvalidArgument):
    """Frequency-domain processing was requested for a non-uniform schedule."""


class DimensionMismatch(InvalidArgument):
    """Operand dimensions are incompatible."""


class ShapeError(InvalidArgument):
    """An array has the wrong shape for the requested operation."""


class DomainError(InvalidArgument):
    """A scalar argument lies outside the mathematical domain of a formula."""


class InsufficientPeaks(ModalcsError):
    """Fewer spectral peaks were found than modes requested."""

    exit_code = 3


class ConfigError(ModalcsError):
    """An experiment configuration failed validation."""

    exit_code = 2


class IoError(ModalcsError):
    """Reading or writing an input/output file failed."""

    exit_code = 4


class ParseError(ModalcsError):
    """A data file could not be parsed.

    Carries the 1-based line (and column, where known) of the offending cell.
    """

    exit_code = 4

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
            message = message + loc
        super().__init__(message)
        self.line = line
        self.column = column


class RaggedRows(ParseError):
    """Rows of a sensor CSV have inconsistent lengths."""
