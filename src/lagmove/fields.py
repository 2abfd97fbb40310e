"""Prescribed analytic velocity fields with exact spatial Jacobians.

Every field is a pure function of (x, t). ``evaluate`` accepts positions of
shape (N, d) and returns (N, d); ``gradient`` returns (N, d, d). Exact
gradients let integrator error be separated from reconstruction error.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _check_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise DimensionError(f"expected (N, 2) positions, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class RigidRotation:
    """v(x) = omega * (-(y - cy), x - cx): rigid rotation about a center."""

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 1.0
    name: str = field(default="rigid-rotation", init=False)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        x = _check_2d(x)
        rel = x - np.asarray(self.center)
        return self.omega * rel @ _ROT90.T

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        x = _check_2d(x)
        return np.broadcast_to(self.omega * _ROT90, (x.shape[0], 2, 2)).copy()


@dataclass(frozen=True)
class Lissajous:
    """Spatially constant, time dependent: v(t) = (15 cos(5t + pi/2), 4 cos(4t))."""

    name: str = field(default="lissajous", init=False)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        x = _check_2d(x)
        v = np.array([15.0 * np.cos(5.0 * t + np.pi / 2.0), 4.0 * np.cos(4.0 * t)])
        return np.broadcast_to(v, x.shape).copy()

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        x = _check_2d(x)
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
        x = np.asarray(x, dtype=float)
        return x @ self._matrix().T + np.asarray(self.b, dtype=float)

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x.shape[1]
        return np.broadcast_to(self._matrix(), (x.shape[0], d, d)).copy()


@dataclass(frozen=True)
class ModulatedRotation:
    """Rotation with time-varying rate omega(t) = omega0 (1 + 0.5 sin(2 pi f t)).

    A minimal unsteady rotational flow: still rigid-body at every instant,
    so hull volume is exactly conserved by the true flow, but the gradient
    changes in time, which separates the streamline mover from the
    change-of-streamlines mover.
    """

    center: tuple[float, float] = (0.0, 0.0)
    omega0: float = 1.0
    modulation_freq: float = 0.5
    name: str = field(default="modulated-rotation", init=False)

    def rate(self, t: float) -> float:
        return self.omega0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * self.modulation_freq * t))

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        x = _check_2d(x)
        rel = x - np.asarray(self.center)
        return self.rate(t) * rel @ _ROT90.T

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        x = _check_2d(x)
        return np.broadcast_to(self.rate(t) * _ROT90, (x.shape[0], 2, 2)).copy()

    def angle(self, t: float) -> float:
        """Accumulated rotation angle: integral of omega(s) ds over [0, t]."""
        w = 2.0 * np.pi * self.modulation_freq
        return self.omega0 * (t + 0.5 * (1.0 - np.cos(w * t)) / w)
