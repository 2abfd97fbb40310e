"""Prescribed analytic velocity fields with exact spatial Jacobians.

Every field is a pure function of (x, t). ``evaluate`` accepts positions of
shape (N, 2) and returns (N, 2); ``gradient`` returns (N, 2, 2). Positions
are checked by shape only: the driver scans what the fields return. Exact
gradients let integrator error be separated from reconstruction error.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_points

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class RigidRotation:
    """v(x) = omega * (-(y - cy), x - cx): rigid rotation about a center."""

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 1.0
    name: str = field(default="rigid-rotation", init=False)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        rel = x - np.asarray(self.center)
        return self.omega * rel @ _ROT90.T

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return np.broadcast_to(self.omega * _ROT90, (x.shape[0], 2, 2)).copy()


@dataclass(frozen=True)
class Lissajous:
    """Spatially constant, time dependent: v(t) = (15 cos(5t + pi/2), 4 cos(4t))."""

    name: str = field(default="lissajous", init=False)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        v = np.array([15.0 * np.cos(5.0 * t + np.pi / 2.0), 4.0 * np.cos(4.0 * t)])
        return np.broadcast_to(v, x.shape).copy()

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return np.zeros((x.shape[0], 2, 2))


def exact_lissajous_center(t: float) -> np.ndarray:
    """Closed-form trajectory of a tracer advected by the Lissajous field.

    For a start at the origin this is (3 sin(5t + pi/2) - 3, sin(4t)); any
    other start just translates the curve (the field is spatially constant).
    """
    return np.array([3.0 * np.sin(5.0 * t + np.pi / 2.0) - 3.0, np.sin(4.0 * t)])


@dataclass(frozen=True)
class LinearField:
    """v(x) = A x + b with constant A, b. Jacobian is A everywhere."""

    A: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    name: str = field(default="linear", init=False)

    def _matrix(self) -> np.ndarray:
        return np.asarray(self.A, dtype=float)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return x @ self._matrix().T + np.asarray(self.b, dtype=float)

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return np.broadcast_to(self._matrix(), (x.shape[0], 2, 2)).copy()


@dataclass(frozen=True)
class ModulatedRotation:
    """Rotation with time-varying rate omega(t) = omega0 (1 + 0.5 sin(2 pi f t)).

    A minimal unsteady rotational flow: still rigid-body at every instant,
    so hull volume is exactly conserved by the true flow, but the gradient
    changes in time, which separates the streamline mover from the
    change-of-streamlines mover in per-point trajectory error (m3 freezes
    the rate at the start of each step and lags in phase). It does not
    separate them in hull volume: each m3 step is a truncated-series
    rotation, so m3 keeps the volume up to the series tail.
    """

    center: tuple[float, float] = (0.0, 0.0)
    omega0: float = 1.0
    modulation_freq: float = 0.5
    name: str = field(default="modulated-rotation", init=False)

    def rate(self, t: float) -> float:
        return self.omega0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * self.modulation_freq * t))

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        rel = x - np.asarray(self.center)
        return self.rate(t) * rel @ _ROT90.T

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return np.broadcast_to(self.rate(t) * _ROT90, (x.shape[0], 2, 2)).copy()

    def angle(self, t: float) -> float:
        """Accumulated rotation angle: integral of omega(s) ds over [0, t]."""
        w = 2.0 * np.pi * self.modulation_freq
        return self.omega0 * (t + 0.5 * (1.0 - np.cos(w * t)) / w)
