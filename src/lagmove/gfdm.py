"""Weighted-least-squares velocity-gradient reconstruction over neighbor stencils.

For point i with neighbors j the fitted matrix A minimizes

    sum_j w_j || v_j - v_i - A (x_j - x_i) ||^2 ,
    w_j = exp(-c |x_j - x_i|^2 / h^2),   c = 6,

solved through the d x d weighted normal equations, shared by all velocity
components. A first-order fit reproduces any exactly-linear field.
"""
from __future__ import annotations

import logging

import numpy as np

from .cloud import PointCloud
from .errors import IllConditionedStencilError, StencilDeficiencyError, StructuralError
from .neighbors import NeighborIndex

log = logging.getLogger(__name__)

WEIGHT_EXPONENT = 6.0
CONDITION_LIMIT = 1e12


def wlsq_gradient(
    cloud: PointCloud,
    index: NeighborIndex,
    i: int,
) -> np.ndarray:
    """Fitted (d, d) gradient at row ``i`` of the cloud."""
    if not 0 <= i < cloud.n:
        raise StructuralError(f"no point at row {i}")
    d = cloud.dim
    j = index.lists[i]
    if len(j) < d:
        raise StencilDeficiencyError(
            f"point {i} has {len(j)} neighbors, needs at least {d}"
        )
    dx = cloud.positions[j] - cloud.positions[i]
    dv = cloud.velocities[j] - cloud.velocities[i]
    h = cloud.smoothing_length
    w = np.exp(-WEIGHT_EXPONENT * np.einsum("ij,ij->i", dx, dx) / (h * h))

    wdx = w[:, None] * dx
    m = dx.T @ wdx              # (d, d) normal matrix
    c = dv.T @ wdx              # (d, d) right-hand side, one row per velocity component
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedStencilError(
            f"stencil of point {i}: condition {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    return np.linalg.solve(m, c.T).T


def all_gradients(
    cloud: PointCloud,
    index: NeighborIndex,
    *,
    zero_fallback: bool = True,
) -> np.ndarray:
    """Row-aligned (N, d, d) array of fitted gradients.

    Points with deficient or ill-conditioned stencils get a zero gradient
    (and a warning) when ``zero_fallback`` is set; the zero gradient
    degrades the streamline movers to their gradient-free counterparts
    locally, which is safe.
    """
    n, d = cloud.positions.shape
    out = np.zeros((n, d, d))
    for i in range(n):
        try:
            out[i] = wlsq_gradient(cloud, index, i)
        except (StencilDeficiencyError, IllConditionedStencilError) as exc:
            if not zero_fallback:
                raise
            log.warning("gradient fallback to zero: %s", exc)
    return out
