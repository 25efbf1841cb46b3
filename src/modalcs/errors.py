"""Exception types shared across the package, and the checked conversions that raise them."""

import numpy as np


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


def _checked_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed!r}; seeds are integers")
    return seed


def _shown(x) -> str:
    try:
        return repr(x)
    except ValueError:  # an int past repr's 4,300 digits: its digit count, one too many at most
        return f"an int of ~{int(x.bit_length() * np.log10(2.0)) + 1} digits"


def _checked_count(m, name: str = "m", lo: int = 1, hi: int = 2**53) -> int:
    try:  # float64 holds every index up to 2**53; a bool is no count
        valid = lo <= m <= hi and m == int(m) and not isinstance(m, (bool, np.bool_))
    except (TypeError, ValueError):  # not a number
        valid = False
    if not valid:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {_shown(m)}")
    return int(m)


def _checked_real(x, name: str, lo: float = 0.0, hi: float = np.inf) -> float:
    """x as a float if lo < x < hi, else DomainError; nan and non-numbers fail."""
    try:
        valid, value = lo < x < hi, float(x)
    except (TypeError, ValueError):  # not a number
        valid = False
    except OverflowError:  # an int past float64
        raise DomainError(f"{name} must be a float64, got {_shown(x)}") from None
    if not valid:
        bound = f"be finite and > {lo:g}" if hi == np.inf else f"lie in ({lo:g}, {hi:g})"
        raise DomainError(f"{name} must {bound}, got {x!r}")
    return value


def _checked_type(value, cls, name: str):
    if not isinstance(value, cls):  # a wrong object would fail later on a missing attribute
        raise InvalidArgument(f"{name} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def _checked_array(values, name: str = "values", dtype=None) -> np.ndarray:
    """values as a finite array of dtype float or complex, else InvalidArgument naming them.

    Strings, ragged input and, where dtype is float, complex values fail.  With no
    dtype, bool, integer and real values become float64, complex and object ones complex128.
    """
    real = "real " if dtype is float else ""
    try:
        values = np.asarray(values)
        kind = values.dtype.kind
        if kind not in ("biufO" if real else "biufcO"):  # str, bytes and dates never convert
            raise TypeError(f"got {values.dtype} values")
        values = np.asarray(values, dtype=dtype or (float if kind in "biuf" else complex))
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float64
        raise InvalidArgument(f"{name} must be {real}numbers: {exc}") from None
    if not np.isfinite(values).all():
        raise InvalidArgument(f"{name} must be finite")
    return values
