"""Weighted-least-squares velocity-gradient reconstruction over neighbor stencils.

For point i with neighbors j the fitted matrix A minimizes

    sum_j w_j || v_j - v_i - A (x_j - x_i) ||^2 ,
    w_j = exp(-c |x_j - x_i|^2 / h^2),   c = 6,

solved through the 2 x 2 weighted normal equations, shared by all velocity
components. A first-order fit reproduces any exactly-linear field.

``all_gradients`` fits every stencil at once. A neighbor pair adds the same
w dx dx^T and w dx dv^T to both of its ends (both are even in the pair's
sign), so the 3 unique normal-matrix entries and 4 right-hand-side entries
are computed once per pair and summed onto both rows. The 2 x 2 systems
are solved in closed form: condition lambda_max / |lambda_min| =
lambda_max^2 / |det|, and the adjugate inverse, each entry divided by det
into its place in the output only where the row passes.

A row passes when its condition is within ``CONDITION_LIMIT`` and its
trace a + c is at least ``TRACE_FLOOR`` = 2 sqrt(smallest normal float),
below which lambda_max^2 is no longer a normal float. That needs no
neighbour count. A stencil of fewer than 2 neighbours has a normal matrix
of rank 1 at most: a = b = c = 0 (cond NaN) or a c = b^2 in exact
arithmetic, so its det is 0 or a residue of a few ulps of a c, and its
cond, at least (a + c)^2 / (4 |det|) >= a c / |det|, is past 1e15
wherever lambda_max^2 is normal. Below the floor a c and b^2 are
subnormal and their difference can round to a grid step, which gives a
one-neighbour stencil a passing cond; the floor catches those, and with
them any stencil that small, whose cond means nothing. The count is read only to word the warning of
a failing row, and a row that fails only the floor is reported with
condition inf. ``wlsq_gradient`` fits a single point with LAPACK and is
kept as its oracle; where ``all_gradients`` zeroes a failing stencil's
row, it raises.

Both take finite (N, 2) position and velocity arrays; the cloud is the
driver's state.
"""
from __future__ import annotations

import logging
import math
import sys

import numpy as np

from .errors import (
    IllConditionedStencilError,
    LagmoveError,
    StencilDeficiencyError,
    StructuralError,
    check_points,
    check_positive,
)
from .neighbors import NeighborIndex

log = logging.getLogger(__name__)

WEIGHT_EXPONENT = 6.0
CONDITION_LIMIT = 1e12
# smallest normal-matrix trace at which lambda_max^2 is a normal float
TRACE_FLOOR = 2.0 * math.sqrt(sys.float_info.min)


def _stencil_error(i: int, count: int, cond: float = np.nan) -> LagmoveError:
    if count < 2:
        return StencilDeficiencyError(f"point {i} has {count} neighbors, needs at least 2")
    return IllConditionedStencilError(
        f"stencil of point {i}: condition {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
    )


def _check_inputs(positions, velocities, index: NeighborIndex, smoothing_length: float) -> int:
    """N of finite (N, 2) positions and velocities, an index of N points and a valid h."""
    n = len(check_points(positions, "positions"))
    check_points(velocities, "velocities", n)
    if index.n != n:
        raise StructuralError(f"index of {index.n} points does not describe {n} points")
    check_positive(smoothing_length, "smoothing length")
    return n


def _det_and_condition(a, b, c):
    """Determinant and condition lambda_max / |lambda_min| of symmetric positive
    semi-definite [[a, b], [b, c]]: inf if singular, nan if zero."""
    det = a * c - b * b
    lmax = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return det, lmax * lmax / np.abs(det)


def wlsq_gradient(
    positions: np.ndarray, velocities: np.ndarray, index: NeighborIndex,
    smoothing_length: float, i: int,
) -> np.ndarray:
    """Fitted (2, 2) gradient at row ``i`` (per-point reference fit)."""
    n = _check_inputs(positions, velocities, index, smoothing_length)
    if not 0 <= i < n:
        raise StructuralError(f"no point at row {i}")
    j = index.lists[i]
    if len(j) < 2:
        raise _stencil_error(i, len(j))
    dx = positions[j] - positions[i]
    dv = velocities[j] - velocities[i]
    h = smoothing_length
    w = np.exp(-WEIGHT_EXPONENT * np.einsum("ij,ij->i", dx, dx) / (h * h))

    wdx = w[:, None] * dx
    m = dx.T @ wdx              # (2, 2) normal matrix
    c = dv.T @ wdx              # (2, 2) right-hand side, one row per velocity component
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise _stencil_error(i, len(j), cond)
    return np.linalg.solve(m, c.T).T


def all_gradients(
    positions: np.ndarray, velocities: np.ndarray, index: NeighborIndex, smoothing_length: float,
) -> np.ndarray:
    """Row-aligned (N, 2, 2) array of fitted gradients.

    Points with deficient or ill-conditioned stencils get a zero gradient
    and one warning each; the zero gradient degrades the streamline movers
    to their gradient-free counterparts locally, which is safe.
    """
    n = _check_inputs(positions, velocities, index, smoothing_length)
    i, j = index.pairs.T.copy()    # contiguous: take is ~5x slower on strided index columns
    xv = np.concatenate([positions, velocities], axis=1)
    dx, dy, du, dv = (xv.take(j, axis=0) - xv.take(i, axis=0)).T   # across every pair
    h = smoothing_length
    w = np.exp(-WEIGHT_EXPONENT * (dx * dx + dy * dy) / (h * h))
    wx, wy = w * dx, w * dy

    # normal matrix [[a, b], [b, c]] and right-hand side [[pu, qu], [pv, qv]]
    # (rows: velocity components) of every point, each a sum over its pairs
    terms = (wx * dx, wx * dy, wy * dy, wx * du, wy * du, wx * dv, wy * dv)
    a, b, c, pu, qu, pv, qv = (np.bincount(i, t, n) + np.bincount(j, t, n) for t in terms)

    det, cond = _det_and_condition(a, b, c)
    trace = a + c
    ok = (cond <= CONDITION_LIMIT) & (trace >= TRACE_FLOOR)
    out = np.zeros((n, 2, 2))
    np.divide(c * pu - b * qu, det, out=out[:, 0, 0], where=ok)
    np.divide(a * qu - b * pu, det, out=out[:, 0, 1], where=ok)
    np.divide(c * pv - b * qv, det, out=out[:, 1, 0], where=ok)
    np.divide(a * qv - b * pv, det, out=out[:, 1, 1], where=ok)
    if not ok.all():
        counts = index.neighbor_count()
        cond[trace < TRACE_FLOOR] = np.inf    # below the floor cond means nothing
        for r in np.flatnonzero(~ok):
            log.warning("gradient fallback to zero: %s", _stencil_error(int(r), int(counts[r]), float(cond[r])))
    return out
