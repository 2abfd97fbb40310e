"""Geometric measurements and error metrics over a point cloud.

Definitions: the numerical diameter is the maximum pairwise distance, the
numerical center is the arithmetic mean of positions, and the occupied
volume is the convex-hull measure (area in 2D).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .cloud import PointCloud
from .errors import DegenerateGeometryError, StructuralError


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


def centroid(cloud: PointCloud) -> np.ndarray:
    if cloud.n == 0:
        raise StructuralError("centroid of an empty cloud")
    return cloud.positions.mean(axis=0)


def measure(cloud: PointCloud) -> tuple[float, float]:
    """Diameter and convex-hull measure (polygon area in 2D), from one hull.

    The farthest pair of a point set is a pair of hull vertices, so the
    diameter is the maximum pairwise distance over the vertices alone.
    """
    if cloud.n < cloud.dim + 1:
        raise DegenerateGeometryError("too few points for a full-dimensional hull")
    try:
        hull = ConvexHull(cloud.positions)
    except QhullError as exc:
        raise DegenerateGeometryError(f"degenerate point set: {exc}") from exc
    pts = cloud.positions[hull.vertices]
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max())), float(hull.volume)


def eps_x(cloud: PointCloud, x_exact: np.ndarray) -> float:
    return float(np.linalg.norm(centroid(cloud) - np.asarray(x_exact, dtype=float)))


def eps_volume(v0: float, v_end: float) -> float:
    """Relative change of occupied volume between start and end."""
    if v0 <= 0:
        raise StructuralError("initial volume must be positive")
    return abs(v0 - v_end) / v0
