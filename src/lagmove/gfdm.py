"""Weighted-least-squares velocity-gradient reconstruction over neighbor stencils.

For point i with neighbors j the fitted matrix A minimizes

    sum_j w_j || v_j - v_i - A (x_j - x_i) ||^2 ,
    w_j = exp(-c |x_j - x_i|^2 / h^2),   c = 6,

solved through the d x d weighted normal equations, shared by all velocity
components. A first-order fit reproduces any exactly-linear field.

``all_gradients`` fits every stencil at once: the normal matrices and
right-hand sides are segment sums over the index's edge list, the
condition number is the ratio of the largest to the smallest absolute
eigenvalue of each symmetric normal matrix (its singular values), and one
batched solve covers every stencil that passes. ``wlsq_gradient`` fits a
single point and is kept as its oracle.

Both take position and velocity arrays; the cloud is the driver's state.
"""
from __future__ import annotations

import logging

import numpy as np

from .errors import (
    IllConditionedStencilError,
    LagmoveError,
    StencilDeficiencyError,
    StructuralError,
)
from .neighbors import NeighborIndex

log = logging.getLogger(__name__)

WEIGHT_EXPONENT = 6.0
CONDITION_LIMIT = 1e12


def _stencil_error(i: int, count: int, d: int, cond: float = np.nan) -> LagmoveError:
    if count < d:
        return StencilDeficiencyError(f"point {i} has {count} neighbors, needs at least {d}")
    return IllConditionedStencilError(
        f"stencil of point {i}: condition {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
    )


def _check_inputs(positions, velocities, index: NeighborIndex, smoothing_length: float):
    """(N, d) of matching arrays, an index with N + 1 offsets and a valid h."""
    if not (positions.ndim == 2 and velocities.shape == positions.shape
            and index.offsets.shape == (len(positions) + 1,)):
        raise StructuralError(
            f"positions {positions.shape}, velocities {velocities.shape} and index offsets "
            f"{index.offsets.shape} do not describe one (N, d) point set"
        )
    if not (np.isfinite(smoothing_length) and smoothing_length > 0):
        raise StructuralError("smoothing length must be positive and finite")
    return positions.shape


def wlsq_gradient(
    positions: np.ndarray, velocities: np.ndarray, index: NeighborIndex,
    smoothing_length: float, i: int,
) -> np.ndarray:
    """Fitted (d, d) gradient at row ``i`` (per-point reference fit)."""
    n, d = _check_inputs(positions, velocities, index, smoothing_length)
    if not 0 <= i < n:
        raise StructuralError(f"no point at row {i}")
    j = index.ids[index.offsets[i]:index.offsets[i + 1]]
    if len(j) < d:
        raise _stencil_error(i, len(j), d)
    dx = positions[j] - positions[i]
    dv = velocities[j] - velocities[i]
    h = smoothing_length
    w = np.exp(-WEIGHT_EXPONENT * np.einsum("ij,ij->i", dx, dx) / (h * h))

    wdx = w[:, None] * dx
    m = dx.T @ wdx              # (d, d) normal matrix
    c = dv.T @ wdx              # (d, d) right-hand side, one row per velocity component
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise _stencil_error(i, len(j), d, cond)
    return np.linalg.solve(m, c.T).T


def all_gradients(
    positions: np.ndarray, velocities: np.ndarray, index: NeighborIndex,
    smoothing_length: float, *, zero_fallback: bool = True,
) -> np.ndarray:
    """Row-aligned (N, d, d) array of fitted gradients.

    Points with deficient or ill-conditioned stencils get a zero gradient
    (and one warning each) when ``zero_fallback`` is set; the zero gradient
    degrades the streamline movers to their gradient-free counterparts
    locally, which is safe. Without it the error of the lowest failing row
    is raised.
    """
    n, d = _check_inputs(positions, velocities, index, smoothing_length)
    counts = index.neighbor_count()
    rows = np.repeat(np.arange(n), counts)
    xv = np.concatenate([positions, velocities], axis=1).T
    diff = xv[:, index.ids] - xv[:, rows]       # (2d, E): dx then dv of every edge
    dx = diff[:d]
    h = smoothing_length
    wdx = np.exp(-WEIGHT_EXPONENT * (dx * dx).sum(axis=0) / (h * h)) * dx

    # sums[i] = [M | C^T] of point i: its normal matrix and transposed
    # right-hand side, each entry a bincount over the edge list
    terms = (wdx[:, None, :] * diff[None, :, :]).reshape(2 * d * d, -1)
    sums = np.stack([np.bincount(rows, weights=t, minlength=n) for t in terms], axis=1)
    sums = sums.reshape(n, d, 2 * d)
    m, ct = sums[:, :, :d], sums[:, :, d:]

    lam = np.abs(np.linalg.eigvalsh(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    ok = (counts >= d) & (cond <= CONDITION_LIMIT)

    out = np.zeros((n, d, d))
    out[ok] = np.swapaxes(np.linalg.solve(m[ok], ct[ok]), 1, 2)
    for i in np.flatnonzero(~ok):
        exc = _stencil_error(int(i), int(counts[i]), d, float(cond[i]))
        if not zero_fallback:
            raise exc
        log.warning("gradient fallback to zero: %s", exc)
    return out
