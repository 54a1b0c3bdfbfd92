"""Exception types, the value checks shared across the package, and ``build``."""
import json
import math
import numbers
from dataclasses import fields


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


def check_finite(name: str, value) -> None:
    """Refuse a value that is not a finite number, naming it."""
    if not is_finite_number(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_point(name: str, value) -> tuple:
    """Refuse a value that is not 3 finite numbers, naming it; return the 3 as a tuple."""
    try:
        point = tuple(value)
    except TypeError:
        point = ()
    if len(point) != 3 or not all(map(is_finite_number, point)):
        raise ValueError(f"{name} must be 3 finite numbers, got {value!r}")
    return point


def check_count(name: str, value) -> int:
    """Refuse a count that is not an integer >= 1, naming it; return the count."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def check_subarrays(side: str, n, k) -> None:
    """Refuse antenna and subarray counts ``n_<side>``, ``k_<side>`` unless k divides n."""
    check_count(f"n_{side}", n)
    check_count(f"k_{side}", k)
    if n % k:
        raise ValueError(f"k_{side}={k} does not divide n_{side}={n}")


def check_seed(name: str, seed, typed: bool = False) -> None:
    """Refuse a seed outside [0, 2**64), naming it: seeds are stored as u64.

    ``typed``: the caller knows ``seed`` is an integer, so the message omits it.
    """
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise ValueError(
            f"{name} must be {'' if typed else 'an integer '}in [0, 2**64), got {seed!r}")


def check_keys(where: str, data, allowed) -> None:
    """Refuse ``data`` unless it is a JSON object whose keys are all in ``allowed``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")


def decode_json(blob: bytes, where: str):
    """The JSON value ``blob`` holds as UTF-8, or one ValueError naming ``where``."""
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"{where} is not valid JSON: {exc}") from exc


def build(cls, data, where: str, complete: bool = False, **fixed):
    """``cls(**data, **fixed)`` for a config dataclass that checks itself.

    ``data`` is one JSON section: an object whose keys are fields of ``cls``
    other than those in ``fixed``; a ``complete`` section, as a file holds,
    names every one of them, where a config takes the missing ones' defaults.
    Whatever is refused, the section or the dataclass's own check, is one
    ValueError naming ``where``.
    """
    names = {f.name for f in fields(cls)} - set(fixed)
    check_keys(where, data, names)
    missing = sorted(names - set(data))
    if complete and missing:
        raise ValueError(f"{where} is missing keys {missing}")
    try:
        return cls(**data, **fixed)
    except (TypeError, ValueError) as exc:  # TypeError: a required field is missing
        raise ValueError(f"{where} is invalid: {exc}") from exc


class DegenerateGeometryError(ValueError):
    """Raised when positions coincide or a scatterer sits on an antenna element."""


class InsufficientDataError(ValueError):
    """Raised when a dataset is too small for the requested operation."""


class NumericError(RuntimeError):
    """Raised when a computation produces non-finite values."""
