"""Geometric measurements and error metrics over a point set.

Definitions: the numerical diameter is the maximum pairwise distance, the
numerical center is the arithmetic mean of positions, and the occupied
volume is the convex-hull area. The measures take a finite (N, 2)
position array, not a cloud: the cloud is the driver's state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateGeometryError, check_points, check_positive


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


def centroid(positions: np.ndarray) -> np.ndarray:
    return check_points(positions, "positions").mean(axis=0)


def measure(positions: np.ndarray) -> tuple[float, float]:
    """Diameter and convex-hull area, from one hull.

    The farthest pair of a point set is a pair of hull vertices, so the
    diameter is the maximum pairwise distance over the vertices alone.
    """
    if len(check_points(positions, "positions")) < 3:
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
    check_positive(v0, "initial volume")
    return abs(v0 - v_end) / v0
