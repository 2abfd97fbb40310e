"""Exception types shared across the package, and the input contract they guard.

lagmove is 2-D. A point array (positions, velocities, displacements) is a
numeric (N, 2) array with N >= 1, a gradient array is (N, 2, 2), and a time
step, length or radius is a finite positive real. ``check_points`` and
``check_positive`` are the only places that decide this; every malformed
input they meet raises a ``StructuralError`` or one of its subclasses.
"""
import math
import numbers

import numpy as np


class LagmoveError(Exception):
    """Base class for all package errors."""


class StructuralError(LagmoveError):
    """Mismatched array lengths or otherwise malformed inputs."""


class NumericInputError(StructuralError):
    """NaN or Inf encountered in an input that must be finite."""


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

    The shape checks cost O(1); ``finite`` adds one scan of every entry.
    """
    tail = (2, 2) if gradient else (2,)
    if not isinstance(x, np.ndarray) or x.dtype.kind not in "iuf":
        raise StructuralError(f"{what} must be a numeric array, not {type(x).__name__}")
    if x.ndim != 1 + len(tail):
        raise StructuralError(f"{what} has shape {x.shape}, expected {('N',) + tail}")
    if x.shape[1:] != tail:
        raise DimensionError(f"{what} has shape {x.shape}; lagmove is 2-D")
    if len(x) == 0 or (rows is not None and len(x) != rows):
        raise StructuralError(f"{what} has {len(x)} rows, expected {rows or 'at least 1'}")
    if finite and not np.isfinite(x).all():
        raise NumericInputError(f"{what} contains non-finite entries")
    return x


def check_positive(x: float, what: str) -> float:
    """``x`` itself, if it is a finite positive real."""
    if not isinstance(x, numbers.Real):
        raise StructuralError(f"{what} must be a real number, not {type(x).__name__}")
    if not math.isfinite(x):
        raise NumericInputError(f"{what} must be finite, got {x}")
    if x <= 0:
        raise StructuralError(f"{what} must be positive, got {x}")
    return x
