"""Point-cloud state: positions, kinematic history and bookkeeping.

Storage is structure-of-arrays: one (N, 2) array per per-point field,
row i of each belonging to point i. A run's positions, velocities and m4
series are column-major (Fortran order) from ``scenarios.initial_cloud``
on, each column one contiguous run, and every kernel allocates its result
like its input, so the layout holds through every step without a
conversion. Operations return new clouds; arrays of the input are never
mutated. The cloud is the one state of a step: ``scenarios`` drives it
and the movers read their inputs from it. A step builds its next cloud
once, with ``advance_history``: the moved positions, formed in the
mover's own displacement array, and the velocity level sampled there.
Each array is checked once, where it enters (``make_cloud``,
``advance_history``), so its readers trust it. ``advance_history``
tests the moved positions and the new velocities for finite entries in
one pass over both, and scans each apart only when that pass fails.
Only m3 and m4 read a velocity gradient, so a level holds one only in
their runs; an m1 or m2 run's clouds hold None at both gradient levels.
A gradient level is either one (2, 2) matrix, the same at every point, or
a full (N, 2, 2) array: an analytic run's gradients are the Jacobians
``fields.gradient`` returns, and a numeric run's are the WLSQ fit's. The
movers take either to ``movers.exp_series_apply``, the one series entry
point, which applies a matrix's series as one (2, 2) product and a full
array's row by row.

A step-0 cloud holds one level and no history: its previous velocity
and gradient levels are None until ``advance_history`` shifts the current
ones in, so m2 and m4 bootstrap with m1 and m3 on the first step.
Besides the two velocity levels the cloud carries ``series_prev``, the m4
mover's series of the previous level, tagged with its dt and term count.
The mover returns it for the current level, and ``advance_history`` shifts
it into place with the velocities, so the next m4 step of the same dt need
not compute it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_points, check_positive


@dataclass(frozen=True)
class LevelSeries:
    """m4's offset-1 series of one velocity level, tagged with the time step
    and term count it was computed with; it is reused only when both match."""

    values: np.ndarray      # (N, 2)
    dt: float
    terms: int


@dataclass(frozen=True)
class PointCloud:
    positions: np.ndarray                    # (N, 2)
    velocities: np.ndarray                   # (N, 2), current level
    velocities_prev: np.ndarray | None       # (N, 2), previous level: None until a step shifts a level in
    grad_velocities: np.ndarray | None       # (2, 2) or (N, 2, 2), current level: None for m1 and m2, which read none
    grad_velocities_prev: np.ndarray | None  # (2, 2) or (N, 2, 2), previous level: None at step 0, and for m1 and m2
    dt: float                                # regular step: the spacing of the two levels
    initial_time: float = 0.0
    step: int = 0
    series_prev: LevelSeries | None = None  # m4 series of the previous level

    @property
    def time(self) -> float:
        # recomputed from the step count, not accumulated, to avoid drift
        return self.initial_time + self.step * self.dt

    @property
    def has_history(self) -> bool:
        """Whether a previous level exists: every step shifts one in."""
        return self.velocities_prev is not None


def _check_gradient(grad, name: str, n: int) -> np.ndarray | None:
    """None, one (2, 2) matrix checked as two finite rows, or an (N, 2, 2) array."""
    if grad is None:
        return None
    grad = np.asarray(grad, dtype=float)
    if grad.ndim == 2:
        return check_points(grad, name, 2)
    return check_points(grad, name, n, gradient=True)


def make_cloud(
    positions: np.ndarray,
    velocities: np.ndarray,
    grad_velocities: np.ndarray | None,
    *,
    dt: float,
) -> PointCloud:
    """Build a fresh step-0 cloud: one level, and no history yet. A None
    gradient is a level without one, for a scheme that reads none."""
    positions = check_points(np.asarray(positions, dtype=float), "positions")
    n = len(positions)
    return PointCloud(
        positions=positions,
        velocities=check_points(np.asarray(velocities, dtype=float), "velocities", n),
        velocities_prev=None,
        grad_velocities=_check_gradient(grad_velocities, "grad_velocities", n),
        grad_velocities_prev=None,
        dt=check_positive(dt, "dt"),
    )


def advance_history(
    cloud: PointCloud,
    new_positions: np.ndarray,
    new_velocities: np.ndarray,
    new_gradients: np.ndarray | None,
    series: LevelSeries | None = None,
) -> PointCloud:
    """The next cloud: the moved positions, and the velocity level sampled there.

    The current velocity/gradient shift into history. A None gradient is a
    level without one, as in ``make_cloud``. ``series`` is the m4 series of
    the level being shifted out (the mover's current-level series); it
    becomes ``series_prev``, and None drops it. Increments the step
    counter; time follows from it. The positions and velocities are checked
    for shape, then for finite entries by one sum of products x_i v_i,
    which is finite only if every factor is. When it is not, because an
    entry is not or because finite products overflow, ``check_points``
    scans the positions and then the velocities, and names the first at
    fault, as two separate checks would.
    """
    n = len(cloud.positions)
    new_positions = check_points(np.asarray(new_positions, dtype=float), "new_positions", n, finite=False)
    new_velocities = check_points(np.asarray(new_velocities, dtype=float), "new_velocities", n, finite=False)
    if not math.isfinite(np.vdot(new_positions.ravel("K"), new_velocities.ravel("K"))):
        check_points(new_positions, "new_positions", n)
        check_points(new_velocities, "new_velocities", n)
    new_gradients = _check_gradient(new_gradients, "new_gradients", n)
    if series is not None:
        check_points(series.values, "series", n, finite=False)
    # the constructor by keyword, not dataclasses.replace: 2 against 5 us per step
    return PointCloud(
        positions=new_positions,
        velocities=new_velocities,
        velocities_prev=cloud.velocities,
        grad_velocities=new_gradients,
        grad_velocities_prev=cloud.grad_velocities,
        dt=cloud.dt,
        initial_time=cloud.initial_time,
        step=cloud.step + 1,
        series_prev=series,
    )
