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
lambda_max^2 / |det|, and the adjugate inverse. ``wlsq_gradient`` fits a
single point with LAPACK and is kept as its oracle; where ``all_gradients``
zeroes a failing stencil's row, it raises.

Both take finite (N, 2) position and velocity arrays; the cloud is the
driver's state.
"""
from __future__ import annotations

import logging

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

    counts = index.neighbor_count()
    det, cond = _det_and_condition(a, b, c)
    ok = (counts >= 2) & (cond <= CONDITION_LIMIT)
    with np.errstate(divide="ignore", invalid="ignore"):   # failing rows are zeroed
        adj = np.stack([c * pu - b * qu, a * qu - b * pu, c * pv - b * qv, a * qv - b * pv], axis=1)
        out = np.where(ok[:, None], adj / det[:, None], 0.0).reshape(n, 2, 2)
    for r in np.flatnonzero(~ok):
        log.warning("gradient fallback to zero: %s", _stencil_error(int(r), int(counts[r]), float(cond[r])))
    return out
