"""Geometric measurements and error metrics over a point set.

Definitions: the numerical diameter is the maximum pairwise distance, the
numerical center is the arithmetic mean of positions, and the occupied
volume is the convex-hull area. The measures take a finite (N, 2)
position array, not a cloud: the cloud is the driver's state.

The center is each column's sum divided by N, summed pairwise down a run's
column-major columns. Diameter and area come from one Qhull hull. A cloud
of more than ``UNFILTERED_ROWS`` rows first passes two extreme-point
filters: an octagon of the extremes of x, y, x + y and x - y, then, over
its survivors, a 32-gon of the extremes in directions k pi / 16. Each
drops the rows strictly inside a circle inscribed in its polygon, which
cannot be hull vertices. A pass takes its survivors column by column into
a C-ordered (M, 2) array: the rows, their order and the layout of a
boolean row selection, at a fraction of its cost on a run's column-major
positions. A smaller cloud reaches Qhull whole, since the filters would
cost more than they save. The diameter is the root of the largest squared
distance between hull vertices, which is the largest distance bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from .errors import DegenerateGeometryError, NumericInputError, check_points, check_positive

# Shrink of each filter pass's inscribed-circle radius, relative to the
# size of its polygon, so that rounding in the edge distances cannot drop a
# point on its boundary (``_drop_inside``).
HULL_FILTER_MARGIN = 1e-9
# Largest coordinate magnitude measured. Coordinate differences stay within
# 2**511, so the squares and 2 x 2 determinants that the hull filter, Qhull
# and the area form stay within float range; past it they can overflow.
MAX_COORDINATE = 2.0**510
# Clouds of at most this many rows go to Qhull whole (``measure``): the hull
# filter's fixed cost, some 40 small NumPy calls, is then more than it saves
# Qhull. The two cost the same between about 600 and 800 rows of a disc, a
# Gaussian and a uniform square.
UNFILTERED_ROWS = 640
# The second filter pass's 16 unit directions, k pi / 16 for k < 16: the
# argmax and argmin of each projection are the extremes in 32 directions,
# counter-clockwise from the x axis.
_DIRECTIONS = np.stack(
    [np.cos(np.pi / 16 * np.arange(16)), np.sin(np.pi / 16 * np.arange(16))], axis=1
)


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
    """Mean of the rows: each column's sum, divided by the row count.

    On a run's column-major positions each column is contiguous, so NumPy
    sums it pairwise, which is at least as accurate as a row-order sum
    (Higham 1993) and writes no (N, 2) temporary.
    """
    return check_points(positions, "positions").sum(axis=0) / len(positions)


def _check_magnitude(largest: float) -> None:
    if not largest <= MAX_COORDINATE:
        raise NumericInputError(
            f"a coordinate of magnitude {largest:.6g} is past {MAX_COORDINATE:.6g}: "
            "the hull's squared distances and areas would overflow a float"
        )


def _drop_inside(positions: np.ndarray, ring: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of ``positions`` outside the inscribed circle of a polygon, in order.

    ``ring`` holds the polygon's corners, rows of ``positions`` in
    counter-clockwise order, and then the first corner again. A row closer
    to the corners' mean c than the smallest signed distance r from c to an
    edge line, less a margin against rounding, lies strictly inside the
    corners' convex hull, and so strictly inside the rows' hull: it is no
    hull vertex. The survivors are a new C-ordered (M, 2) array, taken one
    column at a time at the mask's rows. When r is not positive (collinear
    or coincident corners) ``positions`` is returned whole. ``a`` and ``b``
    are scratch buffers of one float per row; the squared distances to c
    are formed in them.
    """
    corners = ring[:-1]
    c = corners.sum(axis=0) / len(corners)
    edges = ring[1:] - corners
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
    np.subtract(positions[:, 0], c[0], out=a)
    np.subtract(positions[:, 1], c[1], out=b)
    a *= a
    b *= b
    a += b
    rows = np.flatnonzero(a >= r * r)
    kept = np.empty((len(rows), 2))
    positions[:, 0].take(rows, out=kept[:, 0])
    positions[:, 1].take(rows, out=kept[:, 1])
    return kept


def _hull_candidates(positions: np.ndarray) -> np.ndarray:
    """The rows that can be convex-hull vertices, in order (Akl & Toussaint 1978).

    Two passes of ``_drop_inside``. The first takes as corners the argmax
    and argmin of x, y, x + y and x - y, an octagon, and forms its
    distances in the x + y and x - y buffers. The second takes, over the
    octagon's survivors, the argmax and argmin of one (16, 2) @ (2, M)
    projection onto ``_DIRECTIONS``, a 32-gon that hugs the hull closer, and
    forms its distances in the projection's first two rows. Each pass keeps
    its input whole when its corners are collinear or coincident. Integer
    rows are taken as floats, as Qhull takes them. A coordinate past
    ``MAX_COORDINATE`` raises ``NumericInputError`` before any is squared.
    """
    positions = np.asarray(positions, dtype=float)
    x, y = positions[:, 0], positions[:, 1]
    x_max, y_max, x_min, y_min = x.argmax(), y.argmax(), x.argmin(), y.argmin()
    _check_magnitude(max(x[x_max], y[y_max], -x[x_min], -y[y_min]))
    s, d = x + y, x - y
    ring = positions[[
        x_max, s.argmax(), y_max, d.argmin(),
        x_min, s.argmin(), y_min, d.argmax(), x_max,
    ]]
    positions = _drop_inside(positions, ring, s, d)
    projection = _DIRECTIONS @ positions.T
    top, bottom = projection.argmax(axis=1), projection.argmin(axis=1)
    ring = positions[np.concatenate([top, bottom, top[:1]])]
    return _drop_inside(positions, ring, projection[0], projection[1])


def measure(positions: np.ndarray) -> tuple[float, float]:
    """Diameter and convex-hull area, from one hull.

    The farthest pair of a point set is a pair of hull vertices, so the
    diameter is the maximum pairwise distance over the vertices alone,
    taken as the root of the largest squared distance: sqrt is monotone
    and correctly rounded, so it equals the largest distance bit for bit.
    Qhull sees every row of a cloud of at most ``UNFILTERED_ROWS`` rows and
    only the rows ``_hull_candidates`` keeps of a larger one: the hull, and
    so the diameter, are those of all rows. The area is Qhull's sum over the
    same facets, seen from an interior point of the rows it is given, so a
    filtered cloud's may differ from an all-row hull's in its last bits. A
    coordinate past ``MAX_COORDINATE`` raises ``NumericInputError``: the
    area of such a cloud, or Qhull's arithmetic on it, can overflow a float.
    """
    if len(check_points(positions, "positions")) < 3:
        raise DegenerateGeometryError("too few points for a full-dimensional hull")
    if len(positions) > UNFILTERED_ROWS:
        positions = _hull_candidates(positions)
    else:
        _check_magnitude(np.abs(positions).max())
    try:
        hull = ConvexHull(positions)
    except QhullError as exc:
        # Qhull's first line names the fault; the rest dumps its options and input
        fault = str(exc).partition("\n")[0]
        raise DegenerateGeometryError(f"degenerate point set: {fault}") from exc
    return math.sqrt(pdist(positions[hull.vertices], "sqeuclidean").max()), float(hull.volume)


def eps_volume(v0: float, v_end: float) -> float:
    """Relative change of occupied volume between start and end."""
    check_positive(v0, "initial volume")
    return abs(v0 - v_end) / v0
