"""Prescribed analytic velocity fields with exact spatial Jacobians.

Every field is a pure function of (x, t). ``evaluate`` accepts positions of
shape (N, 2) and returns (N, 2). Every field is affine in x, so its
gradient is one matrix at every point: ``jacobian(t)`` returns that (2, 2)
matrix, and ``gradient(x, t)`` returns it too, after checking the shape of
``x``. That (2, 2) matrix is what an analytic run installs; a numeric run
installs the full (N, 2, 2) array of the WLSQ fit. Positions are checked
by shape only: the stepping code scans what fields return. Every call
returns fresh memory, and ``evaluate`` lays it out like ``x`` (a run's
positions are column-major); both rotations share one matmul-free kernel.
Exact gradients separate integrator error from reconstruction error.

Every field also has ``flow(x0, t)``, its exact flow map from t = 0: where
the points at ``x0`` at t = 0 are at time t. It is formed as x0 plus a
displacement that is exactly zero at t = 0, so ``flow(x0, 0)`` is ``x0``
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DimensionError, check_center, check_points, check_real

_ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


class _AffineField:
    """A field whose Jacobian does not depend on x. Each subclass defines
    ``jacobian(t)``, which returns a fresh (2, 2) float array."""

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        """The gradient at every row of the (N, 2) ``x``: one fresh (2, 2)
        matrix, ``jacobian(t)``, since it does not depend on x."""
        check_points(x, "x", finite=False)
        return self.jacobian(t)


def _rotate(x: np.ndarray, center: tuple[float, float], rate: float) -> np.ndarray:
    """rate * (cy - y, x - cx). Negation and scaling are exact, so this is
    rate * (x - center) times the transposed ``_ROT90``, bit for bit."""
    cx, cy = center
    out = np.empty_like(x, dtype=float)
    np.subtract(cy, x[:, 1], out=out[:, 0], dtype=float)
    np.subtract(x[:, 0], cx, out=out[:, 1], dtype=float)
    return np.multiply(out, rate, out=out)


def _turn(x0: np.ndarray, center: tuple[float, float], angle: float) -> np.ndarray:
    """The (N, 2) ``x0`` turned by ``angle`` about ``center``, as x0 + (x0 - c)
    (R - I)^T. cos - 1 is formed as -2 sin(angle / 2)^2, which does not
    cancel at small angles."""
    check_points(x0, "x0", finite=False)
    s, c1 = np.sin(angle), -2.0 * np.sin(0.5 * angle) ** 2
    return x0 + (x0 - np.asarray(center, dtype=float)) @ np.array([[c1, -s], [s, c1]]).T


@dataclass(frozen=True)
class RigidRotation(_AffineField):
    """v(x) = omega * (-(y - cy), x - cx): rigid rotation about a center."""

    center: tuple[float, float] = (0.0, 0.0)
    omega: float = 1.0

    def __post_init__(self):
        check_center(self.center, "center")
        check_real(self.omega, "omega")

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return _rotate(x, self.center, self.omega)

    def jacobian(self, t: float) -> np.ndarray:
        return self.omega * _ROT90

    def flow(self, x0: np.ndarray, t: float) -> np.ndarray:
        """``x0`` turned by omega t about the center."""
        return _turn(x0, self.center, self.omega * t)


@dataclass(frozen=True)
class Lissajous(_AffineField):
    """Spatially constant, time dependent: v(t) = (15 cos(5t + pi/2), 4 cos(4t))."""

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        out = np.empty_like(x, dtype=float)   # by column: a row-wise fill of C order is 6x slower
        out[:, 0] = 15.0 * np.cos(5.0 * t + np.pi / 2.0)
        out[:, 1] = 4.0 * np.cos(4.0 * t)
        return out

    def jacobian(self, t: float) -> np.ndarray:
        return np.zeros((2, 2))

    def flow(self, x0: np.ndarray, t: float) -> np.ndarray:
        """``x0`` translated along ``exact_lissajous_center`` from 0 to t,
        which starts at exactly (+0, +0)."""
        check_points(x0, "x0", finite=False)
        return x0 + exact_lissajous_center(t)


def exact_lissajous_center(t: float) -> np.ndarray:
    """Closed-form trajectory of a tracer advected by the Lissajous field.

    For a start at the origin this is (3 sin(5t + pi/2) - 3, sin(4t)); any
    other start just translates the curve (the field is spatially constant).
    """
    return np.array([3.0 * np.sin(5.0 * t + np.pi / 2.0) - 3.0, np.sin(4.0 * t)])


@dataclass(frozen=True)
class LinearField(_AffineField):
    """v(x) = A x + b with constant A, b. Jacobian is A everywhere."""

    A: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]

    def __post_init__(self):
        try:
            shapes = np.shape(self.A), np.shape(self.b)
        except ValueError:   # ragged nesting
            shapes = None
        if shapes != ((2, 2), (2,)):
            raise DimensionError(f"LinearField needs a (2, 2) A and a (2,) b, got {self.A} and {self.b}")
        check_points(np.asarray(self.A), "A")    # two finite numeric rows
        check_center(self.b, "b")

    def jacobian(self, t: float) -> np.ndarray:
        return np.array(self.A, dtype=float)

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        # one matmul into memory laid out like x: BLAS may fuse its multiply-add,
        # so a product per column could differ from x @ A.T in the last bit
        out = np.matmul(x, self.jacobian(t).T, out=np.empty_like(x, dtype=float))
        out += self.b
        return out

    def flow(self, x0: np.ndarray, t: float) -> np.ndarray:
        """x0 mapped by exp(t [[A, b], [0, 0]]), the augmented exponential of
        x' = A x + b: x0 + x0 (Phi - I)^T + phi."""
        check_points(x0, "x0", finite=False)
        aug = np.zeros((3, 3))
        aug[:2, :2] = self.jacobian(t) * t
        aug[:2, 2] = np.asarray(self.b, dtype=float) * t
        m = expm(aug)
        return x0 + x0 @ (m[:2, :2] - np.eye(2)).T + m[:2, 2]


@dataclass(frozen=True)
class ModulatedRotation(_AffineField):
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

    def __post_init__(self):
        check_center(self.center, "center")
        check_real(self.omega0, "omega0")
        check_real(self.modulation_freq, "modulation_freq")

    def rate(self, t: float) -> float:
        return self.omega0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * self.modulation_freq * t))

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        check_points(x, "x", finite=False)
        return _rotate(x, self.center, self.rate(t))

    def jacobian(self, t: float) -> np.ndarray:
        return self.rate(t) * _ROT90

    def angle(self, t: float) -> float:
        """Accumulated rotation angle: integral of omega(s) ds over [0, t].
        Without modulation that is its w -> 0 limit, omega0 t. The modulation
        term 0.5 (1 - cos(w t)) / w is formed as sin(w t / 2)^2 / w, which
        is equal and does not cancel when w t is small."""
        w = 2.0 * np.pi * self.modulation_freq
        if w == 0.0:
            return self.omega0 * t
        return self.omega0 * (t + np.sin(0.5 * w * t) ** 2 / w)

    def flow(self, x0: np.ndarray, t: float) -> np.ndarray:
        """``x0`` turned by ``angle(t)`` about the center."""
        return _turn(x0, self.center, self.angle(t))
