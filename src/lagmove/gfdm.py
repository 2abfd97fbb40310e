"""Weighted-least-squares velocity-gradient reconstruction over neighbor stencils.

For point i with neighbors j the fitted matrix A minimizes

    sum_j w_j || v_j - v_i - A (x_j - x_i) ||^2 ,
    w_j = exp(-c |x_j - x_i|^2 / h^2),   c = 6,

solved through the 2 x 2 weighted normal equations, shared by all velocity
components. A first-order fit reproduces any exactly-linear field.

``all_gradients`` fits every stencil at once: the normal matrices and
right-hand sides are segment sums over the index's edge list, the
condition number is the ratio of the largest to the smallest absolute
eigenvalue of each symmetric normal matrix (its singular values), and one
batched solve covers every stencil that passes. ``wlsq_gradient`` fits a
single point and is kept as its oracle.

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
    """Number of points of finite (N, 2) positions and velocities, an index
    with N + 1 offsets and a valid h."""
    n = len(check_points(positions, "positions"))
    check_points(velocities, "velocities", n)
    if index.offsets.shape != (n + 1,):
        raise StructuralError(f"index offsets {index.offsets.shape} do not describe {n} points")
    check_positive(smoothing_length, "smoothing length")
    return n


def wlsq_gradient(
    positions: np.ndarray, velocities: np.ndarray, index: NeighborIndex,
    smoothing_length: float, i: int,
) -> np.ndarray:
    """Fitted (2, 2) gradient at row ``i`` (per-point reference fit)."""
    n = _check_inputs(positions, velocities, index, smoothing_length)
    if not 0 <= i < n:
        raise StructuralError(f"no point at row {i}")
    j = index.ids[index.offsets[i]:index.offsets[i + 1]]
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
    positions: np.ndarray, velocities: np.ndarray, index: NeighborIndex,
    smoothing_length: float, *, zero_fallback: bool = True,
) -> np.ndarray:
    """Row-aligned (N, 2, 2) array of fitted gradients.

    Points with deficient or ill-conditioned stencils get a zero gradient
    (and one warning each) when ``zero_fallback`` is set; the zero gradient
    degrades the streamline movers to their gradient-free counterparts
    locally, which is safe. Without it the error of the lowest failing row
    is raised.
    """
    n = _check_inputs(positions, velocities, index, smoothing_length)
    counts = index.neighbor_count()
    rows = np.repeat(np.arange(n), counts)
    xv = np.concatenate([positions, velocities], axis=1).T
    diff = xv[:, index.ids] - xv[:, rows]       # (4, E): dx then dv of every edge
    dx = diff[:2]
    h = smoothing_length
    wdx = np.exp(-WEIGHT_EXPONENT * (dx * dx).sum(axis=0) / (h * h)) * dx

    # sums[i] = [M | C^T] of point i: its normal matrix and transposed
    # right-hand side, each entry a bincount over the edge list
    terms = (wdx[:, None, :] * diff[None, :, :]).reshape(8, -1)
    sums = np.stack([np.bincount(rows, weights=t, minlength=n) for t in terms], axis=1)
    sums = sums.reshape(n, 2, 4)
    m, ct = sums[:, :, :2], sums[:, :, 2:]

    lam = np.abs(np.linalg.eigvalsh(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    ok = (counts >= 2) & (cond <= CONDITION_LIMIT)

    out = np.zeros((n, 2, 2))
    out[ok] = np.swapaxes(np.linalg.solve(m[ok], ct[ok]), 1, 2)
    for i in np.flatnonzero(~ok):
        exc = _stencil_error(int(i), int(counts[i]), float(cond[i]))
        if not zero_fallback:
            raise exc
        log.warning("gradient fallback to zero: %s", exc)
    return out
