"""Exception types shared across the package, and the input contract they guard.

lagmove is 2-D. A point array (positions, velocities, displacements) is a
numeric (N, 2) array with N >= 1, a gradient array is (N, 2, 2), a time
step, length or radius is a finite positive real, not a bool, and a count
(points, series terms, output stride) is an integral number, not a bool,
with a lower bound. A center is one finite point. ``check_points``,
``check_center``, ``check_positive`` and ``check_count`` are the only
places that decide this; every malformed input they meet raises a
``StructuralError`` or one of its subclasses.
"""
import math
import numbers

import numpy as np


class LagmoveError(Exception):
    """Base class for all package errors."""


class StructuralError(LagmoveError):
    """Mismatched array lengths or otherwise malformed inputs."""


class NumericInputError(StructuralError):
    """NaN or Inf encountered in an input that must be finite, or a finite
    input whose arithmetic would overflow a float."""


class DimensionError(StructuralError):
    """An array whose spatial axes are not 2: lagmove is 2-D."""


class HistoryMissingError(LagmoveError):
    """A mover needing previous-step data was called without history."""


class StencilDeficiencyError(LagmoveError):
    """Too few neighbors to fit a gradient."""


class IllConditionedStencilError(LagmoveError):
    """Normal-equations matrix of a stencil fit is numerically singular."""


class DegenerateGeometryError(LagmoveError):
    """Point set is collinear where a full-dimensional hull is needed."""


def check_points(
    x: np.ndarray, what: str, rows: int | None = None, *,
    gradient: bool = False, finite: bool = True,
) -> np.ndarray:
    """``x`` itself, if it is a numeric (N, 2) array, or (N, 2, 2) with
    ``gradient``, whose N is ``rows`` when given and at least 1 otherwise.

    The shape checks cost O(1); ``finite`` adds one pass over a float
    array. Its sum of squares is finite only if every entry is: a NaN makes
    it NaN and an infinity +inf, and non-negative terms cannot cancel. Only
    when the sum is not finite, because an entry is or because finite
    squares overflow, does an entry-wise scan decide. ``np.vdot`` raises no
    overflow warning, where ``np.dot`` and ``@`` do. Integers are finite.
    Every row of an array whose row stride is 0 (a ``np.broadcast_to``
    view) is its first row, so only that row is scanned: ``np.vdot`` would
    copy the whole view first. The scan reads ``ravel("K")``, the entries
    in memory order: a view of any contiguous array, where ``np.vdot``
    would copy a column-major one into row order.
    """
    tail = (2, 2) if gradient else (2,)
    if not isinstance(x, np.ndarray):
        raise StructuralError(f"{what} must be a numeric array, not {type(x).__name__}")
    if x.dtype.kind not in "iuf":
        raise StructuralError(f"{what} must be a numeric array, not dtype {x.dtype}")
    if x.ndim != 1 + len(tail):
        raise StructuralError(f"{what} has shape {x.shape}, expected {('N',) + tail}")
    if x.shape[1:] != tail:
        raise DimensionError(f"{what} has shape {x.shape}; lagmove is 2-D")
    if len(x) == 0 or (rows is not None and len(x) != rows):
        raise StructuralError(f"{what} has {len(x)} rows, expected {rows or 'at least 1'}")
    if finite and x.dtype.kind == "f":
        scanned = (x[:1] if x.strides[0] == 0 else x).ravel("K")
        if not math.isfinite(np.vdot(scanned, scanned)) and not np.isfinite(scanned).all():
            raise NumericInputError(f"{what} contains non-finite entries")
    return x


def check_center(center, what: str) -> None:
    """Raise unless ``center`` is one finite numeric 2-vector, as a
    (1, 2) point array would pass ``check_points``."""
    try:
        points = np.asarray([center])
    except ValueError:   # ragged nesting
        raise StructuralError(f"{what} must be a 2-vector, got {center!r}") from None
    check_points(points, what)


def check_count(x: int, what: str, minimum: int) -> int:
    """``x`` itself, if it is an integral number (not a bool) of at least ``minimum``."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise StructuralError(f"{what} must be an integer, not {type(x).__name__}")
    if x < minimum:
        raise StructuralError(f"{what} must be >= {minimum}, got {x}")
    return x


def check_positive(x: float, what: str) -> float:
    """``x`` itself, if it is a finite positive real (not a bool)."""
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise StructuralError(f"{what} must be a real number, not {type(x).__name__}")
    if not math.isfinite(x):
        raise NumericInputError(f"{what} must be finite, got {x}")
    if x <= 0:
        raise StructuralError(f"{what} must be positive, got {x}")
    return x
