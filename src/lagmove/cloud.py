"""Point-cloud state: positions, kinematic history and bookkeeping.

Storage is structure-of-arrays: one (N, 2) array per per-point field,
row i of each belonging to point i. Operations return new clouds; arrays
of the input are never mutated. The cloud is the driver's state: only
``scenarios`` reads its layout, and the kernels below it take arrays.

Besides the two velocity levels the cloud carries ``series_prev``, the m4
mover's series of the previous level. The mover returns it for the
current level, and ``advance_history`` shifts it into place with the
velocities, so the next m4 step need not compute it again.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import check_points, check_positive
from .movers import LevelSeries


@dataclass(frozen=True)
class PointCloud:
    positions: np.ndarray             # (N, 2)
    velocities: np.ndarray            # (N, 2), current level
    velocities_prev: np.ndarray       # (N, 2), previous level
    grad_velocities: np.ndarray       # (N, 2, 2), current level
    grad_velocities_prev: np.ndarray  # (N, 2, 2), previous level
    smoothing_length: float
    dt: float
    initial_time: float = 0.0
    step: int = 0
    has_history: bool = False
    series_prev: LevelSeries | None = None  # m4 series of the previous level

    @property
    def time(self) -> float:
        # recomputed from the step count, not accumulated, to avoid drift
        return self.initial_time + self.step * self.dt

    def validate(self) -> None:
        n = len(check_points(self.positions, "positions"))
        for name in ("velocities", "velocities_prev"):
            check_points(getattr(self, name), name, n)
        for name in ("grad_velocities", "grad_velocities_prev"):
            check_points(getattr(self, name), name, n, gradient=True)
        check_positive(self.smoothing_length, "smoothing_length")
        check_positive(self.dt, "dt")


def make_cloud(
    positions: np.ndarray,
    velocities: np.ndarray,
    grad_velocities: np.ndarray,
    *,
    smoothing_length: float,
    dt: float,
) -> PointCloud:
    """Build a fresh step-0 cloud (no history yet)."""
    positions = np.asarray(positions, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    grad_velocities = np.asarray(grad_velocities, dtype=float)
    cloud = PointCloud(
        positions=positions,
        velocities=velocities,
        velocities_prev=np.zeros_like(velocities),
        grad_velocities=grad_velocities,
        grad_velocities_prev=np.zeros_like(grad_velocities),
        smoothing_length=smoothing_length,
        dt=dt,
    )
    cloud.validate()
    return cloud


def advance_history(
    cloud: PointCloud,
    new_velocities: np.ndarray,
    new_gradients: np.ndarray,
    series: LevelSeries | None = None,
) -> PointCloud:
    """Shift the current velocity/gradient into history and install the new level.

    ``series`` is the m4 series of the level being shifted out (the mover's
    current-level series); it becomes ``series_prev``, and None drops it.
    Increments the step counter; time follows from it.
    """
    n = len(cloud.positions)
    new_velocities = check_points(np.asarray(new_velocities, dtype=float), "new_velocities", n)
    new_gradients = check_points(
        np.asarray(new_gradients, dtype=float), "new_gradients", n, gradient=True
    )
    return replace(
        cloud,
        velocities=new_velocities,
        velocities_prev=cloud.velocities,
        grad_velocities=new_gradients,
        grad_velocities_prev=cloud.grad_velocities,
        series_prev=series,
        step=cloud.step + 1,
        has_history=True,
    )


def apply_displacements(cloud: PointCloud, displacements: np.ndarray) -> PointCloud:
    """Move every point by its displacement; nothing else changes."""
    displacements = check_points(
        np.asarray(displacements, dtype=float), "displacements", len(cloud.positions)
    )
    return replace(cloud, positions=cloud.positions + displacements)
