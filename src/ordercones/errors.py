"""Domain error types shared across the library and surfaced by the CLI,
and the numeric and id readers that turn unreadable input into InvalidInput."""

import numpy as np

__all__ = [
    "OrderConesError",
    "UnknownId",
    "AntisymmetryViolation",
    "DimensionMismatch",
    "NotIsotone",
    "NegativeValues",
    "OrderNotDetermined",
    "PointsNotSeparated",
    "IndexOutOfRange",
    "NotHermitian",
    "NotNormal",
    "NotNormalized",
    "DomainError",
    "NotARotation",
    "InvalidInput",
    "float_array",
    "string_ids",
]


class OrderConesError(Exception):
    """Base class for every domain error raised by this package."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class UnknownId(OrderConesError):
    """An element, point, or landmark id is not part of the structure."""


class AntisymmetryViolation(OrderConesError):
    """A relation closure produced a 2-cycle between distinct ids."""


class DimensionMismatch(OrderConesError):
    """Vector or matrix sizes do not line up."""


class NotIsotone(OrderConesError):
    """A function fails order preservation where it is required."""


class NegativeValues(OrderConesError):
    """A nonnegative function was required."""


class OrderNotDetermined(OrderConesError):
    """The generator family does not induce the expected order."""


class PointsNotSeparated(OrderConesError):
    """The function family identifies two distinct elements."""


class IndexOutOfRange(OrderConesError):
    """An expression references a generator index past the family."""


class NotHermitian(OrderConesError):
    """A matrix is not self-adjoint within tolerance."""


class NotNormal(OrderConesError):
    """A matrix does not commute with its adjoint within tolerance."""


class NotNormalized(OrderConesError):
    """A state vector is not unit length within tolerance."""


class DomainError(OrderConesError):
    """A scalar function is undefined at a required spectral point."""


class NotARotation(OrderConesError):
    """A 3x3 matrix is not orthogonal with determinant one."""


class InvalidInput(OrderConesError):
    """Malformed structure: broken invariants or unusable parameters."""


def float_array(value, what: str) -> np.ndarray:
    """value as a float array; what numpy cannot read as one (text, ragged lists) is InvalidInput."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{what} must be numeric: {exc}") from exc


def string_ids(values, what: str, utf8: bool = False) -> tuple[str, ...]:
    """values as a tuple of ids; ids are strings, and anything else is InvalidInput (never str()-coerced).

    With utf8, as for a list of elements or points that output may write,
    an id must also have a UTF-8 form: one holding a lone surrogate is
    InvalidInput.  The list is encoded once, as one text.
    """
    if isinstance(values, (str, dict)):
        raise InvalidInput(f"{what} must be a list of strings, got {type(values).__name__}")
    try:
        ids = tuple(values)
    except TypeError as exc:
        raise InvalidInput(f"{what} must be a list of strings, got {type(values).__name__}") from exc
    for x in ids:
        if not isinstance(x, str):
            raise InvalidInput(f"{what} must be strings, got {type(x).__name__}")
    if utf8:
        try:
            "".join(ids).encode()
        except UnicodeEncodeError as exc:  # UTF-8 refuses surrogates alone
            lone = exc.object[exc.start:exc.end]
            raise InvalidInput(f"{what} must have a UTF-8 form, but one holds the lone surrogate {lone!r}") from None
    return ids
