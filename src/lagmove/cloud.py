"""Point-cloud state: positions, kinematic history and bookkeeping.

Storage is structure-of-arrays: one (N, d) array per per-point field,
row i of each belonging to point i. Operations return new clouds; arrays
of the input are never mutated.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericInputError, StructuralError


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

    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    @property
    def dim(self) -> int:
        return int(self.positions.shape[1])

    @property
    def time(self) -> float:
        # recomputed from the step count, not accumulated, to avoid drift
        return self.initial_time + self.step * self.dt

    def validate(self) -> None:
        n, d = self.positions.shape
        if d not in (2, 3):
            raise StructuralError(f"dimension must be 2 or 3, got {d}")
        for name in ("positions", "velocities", "velocities_prev"):
            arr = getattr(self, name)
            if arr.shape != (n, d):
                raise StructuralError(f"{name} has shape {arr.shape}, expected {(n, d)}")
        for name in ("grad_velocities", "grad_velocities_prev"):
            arr = getattr(self, name)
            if arr.shape != (n, d, d):
                raise StructuralError(f"{name} has shape {arr.shape}, expected {(n, d, d)}")
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
        step=0,
        has_history=False,
    )
    cloud.validate()
    return cloud


def _check_aligned(cloud: PointCloud, arr: np.ndarray, shape: tuple, what: str) -> np.ndarray:
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
) -> PointCloud:
    """Shift the current velocity/gradient into history and install the new level.

    Increments the step counter; time follows from it.
    """
    n, d = cloud.positions.shape
    new_velocities = _check_aligned(cloud, new_velocities, (n, d), "new_velocities")
    new_gradients = _check_aligned(cloud, new_gradients, (n, d, d), "new_gradients")
    return replace(
        cloud,
        velocities=new_velocities,
        velocities_prev=cloud.velocities,
        grad_velocities=new_gradients,
        grad_velocities_prev=cloud.grad_velocities,
        step=cloud.step + 1,
        has_history=True,
    )


def apply_displacements(cloud: PointCloud, displacements: np.ndarray) -> PointCloud:
    """Move every point by its displacement; nothing else changes."""
    n, d = cloud.positions.shape
    displacements = _check_aligned(cloud, displacements, (n, d), "displacements")
    return replace(cloud, positions=cloud.positions + displacements)
