"""Exception types and the value checks shared across the package."""
import math
import numbers


def is_integer(value) -> bool:
    """An integer, not a bool (a float such as 4.0 is not one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A real number, not a bool, that is finite as a float64."""
    try:  # a JSON integer can be too large for a float64
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


class DegenerateGeometryError(ValueError):
    """Raised when positions coincide or a scatterer sits on an antenna element."""


class InsufficientDataError(ValueError):
    """Raised when a dataset is too small for the requested operation."""


class NumericError(RuntimeError):
    """Raised when a computation produces non-finite values."""
