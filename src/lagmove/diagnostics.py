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
from scipy.spatial.distance import pdist

from .errors import DegenerateGeometryError, check_points, check_positive

# Shrink of the radius of the extreme octagon's inscribed circle, relative
# to the octagon's size, so that rounding in the edge distances cannot drop
# a point on its boundary (``_hull_candidates``).
HULL_FILTER_MARGIN = 1e-9


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
    """Mean of the rows, each column summed in row order.

    This is what ``positions.mean(axis=0)`` computes on a C-ordered array,
    bit for bit, without NumPy's reduction over a 2-element inner loop
    (2.7x slower at N = 20 000). ``cumsum`` sums each column in row order
    on either layout, so a run's column-major positions give the same bits.
    """
    return np.cumsum(check_points(positions, "positions"), axis=0)[-1] / len(positions)


def _hull_candidates(positions: np.ndarray) -> np.ndarray:
    """The rows that can be convex-hull vertices, in order (Akl & Toussaint 1978).

    The argmax and argmin of x, y, x + y and x - y are hull points and, in
    counter-clockwise order, the corners of an octagon inside the hull. A
    row closer to the corners' mean c than the smallest distance r from c
    to an edge line, less a margin against rounding, lies strictly inside
    the octagon, so it is no vertex. When r is not positive (collinear or
    coincident corners) ``positions`` is returned whole.
    """
    x, y = positions[:, 0], positions[:, 1]
    s, d = x + y, x - y
    corners = positions[[
        x.argmax(), s.argmax(), y.argmax(), d.argmin(),
        x.argmin(), s.argmin(), y.argmin(), d.argmax(),
    ]]
    c = corners.mean(axis=0)
    edges = np.roll(corners, -1, axis=0) - corners
    length = np.hypot(edges[:, 0], edges[:, 1])
    proper = length > 0.0          # repeated corners make zero-length edges
    if not proper.any():
        return positions
    to_c = c - corners
    cross = edges[:, 0] * to_c[:, 1] - edges[:, 1] * to_c[:, 0]
    size = np.hypot(to_c[:, 0], to_c[:, 1]).max()
    r = (cross[proper] / length[proper]).min() - HULL_FILTER_MARGIN * size
    if not r > 0.0:
        return positions
    dx, dy = x - c[0], y - c[1]
    return positions[dx * dx + dy * dy >= r * r]


def measure(positions: np.ndarray) -> tuple[float, float]:
    """Diameter and convex-hull area, from one hull.

    The farthest pair of a point set is a pair of hull vertices, so the
    diameter is the maximum pairwise distance over the vertices alone.
    Qhull sees only the rows ``_hull_candidates`` keeps: the hull, and so
    the diameter, are those of all rows. The area is Qhull's sum over the
    same facets, seen from an interior point of the rows it is given, so
    it may differ from an all-row hull's in its last bits.
    """
    if len(check_points(positions, "positions")) < 3:
        raise DegenerateGeometryError("too few points for a full-dimensional hull")
    positions = _hull_candidates(positions)
    try:
        hull = ConvexHull(positions)
    except QhullError as exc:
        # Qhull's first line names the fault; the rest dumps its options and input
        fault = str(exc).partition("\n")[0]
        raise DegenerateGeometryError(f"degenerate point set: {fault}") from exc
    return float(pdist(positions[hull.vertices]).max()), float(hull.volume)


def eps_volume(v0: float, v_end: float) -> float:
    """Relative change of occupied volume between start and end."""
    check_positive(v0, "initial volume")
    return abs(v0 - v_end) / v0
