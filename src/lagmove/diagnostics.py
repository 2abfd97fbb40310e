"""Geometric measurements and error metrics over a point set.

Definitions: the numerical diameter is the maximum pairwise distance, the
numerical center is the arithmetic mean of positions, and the occupied
volume is the convex-hull measure (area in 2D). The measures take a
finite (N, d) position array, not a cloud: the cloud is the driver's state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateGeometryError, NumericInputError, StructuralError


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    time: float
    centroid: np.ndarray
    diameter: float
    hull_volume: float
    eps_dia: float
    eps_x: float
    eps_V: float


def _check_positions(positions: np.ndarray) -> None:
    if not isinstance(positions, np.ndarray):
        raise StructuralError(f"positions must be an (N, d) array, not {type(positions).__name__}")
    if positions.ndim != 2:
        raise StructuralError(f"positions must be an (N, d) array, got shape {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise NumericInputError("positions contain non-finite entries")


def centroid(positions: np.ndarray) -> np.ndarray:
    _check_positions(positions)
    if len(positions) == 0:
        raise StructuralError("centroid of an empty point set")
    return positions.mean(axis=0)


def measure(positions: np.ndarray) -> tuple[float, float]:
    """Diameter and convex-hull measure (polygon area in 2D), from one hull.

    The farthest pair of a point set is a pair of hull vertices, so the
    diameter is the maximum pairwise distance over the vertices alone.
    """
    _check_positions(positions)
    if len(positions) < positions.shape[1] + 1:
        raise DegenerateGeometryError("too few points for a full-dimensional hull")
    try:
        hull = ConvexHull(positions)
    except QhullError as exc:
        raise DegenerateGeometryError(f"degenerate point set: {exc}") from exc
    pts = positions[hull.vertices]
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max())), float(hull.volume)


def eps_x(positions: np.ndarray, x_exact: np.ndarray) -> float:
    """Distance of the centroid from ``x_exact``; checks ``positions`` as ``centroid`` does."""
    return float(np.linalg.norm(centroid(positions) - np.asarray(x_exact, dtype=float)))


def eps_volume(v0: float, v_end: float) -> float:
    """Relative change of occupied volume between start and end."""
    if v0 <= 0:
        raise StructuralError("initial volume must be positive")
    return abs(v0 - v_end) / v0
