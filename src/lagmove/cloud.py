"""Point-cloud state: positions, kinematic history and bookkeeping.

Storage is structure-of-arrays: one (N, d) array per per-point field,
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

from .errors import NumericInputError, StructuralError
from .movers import LevelSeries


@dataclass(frozen=True)
class PointCloud:
    positions: np.ndarray             # (N, d)
    velocities: np.ndarray            # (N, d), current level
    velocities_prev: np.ndarray       # (N, d), previous level
    grad_velocities: np.ndarray       # (N, d, d), current level
    grad_velocities_prev: np.ndarray  # (N, d, d), previous level
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
        n, d = self.positions.shape
        if d not in (2, 3):
            raise StructuralError(f"dimension must be 2 or 3, got {d}")
        for name in ("positions", "velocities", "velocities_prev"):
            _check_aligned(getattr(self, name), (n, d), name)
        for name in ("grad_velocities", "grad_velocities_prev"):
            _check_aligned(getattr(self, name), (n, d, d), name)
        if not (np.isfinite(self.smoothing_length) and np.isfinite(self.dt)):
            raise NumericInputError("smoothing_length and dt must be finite")
        if self.smoothing_length <= 0:
            raise StructuralError("smoothing_length must be positive")
        if self.dt <= 0:
            raise StructuralError("dt must be positive")


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


def _check_aligned(arr: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise StructuralError(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericInputError(f"{what} contains non-finite entries")
    return arr


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
    n, d = cloud.positions.shape
    new_velocities = _check_aligned(new_velocities, (n, d), "new_velocities")
    new_gradients = _check_aligned(new_gradients, (n, d, d), "new_gradients")
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
    n, d = cloud.positions.shape
    displacements = _check_aligned(displacements, (n, d), "displacements")
    return replace(cloud, positions=cloud.positions + displacements)
