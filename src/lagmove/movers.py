"""The four point-movement schemes.

Each scheme turns a point's kinematic history into a displacement over one
time step by integrating a characteristic-velocity ODE:

  m1  velocity frozen over the step.
  m2  velocity derivative frozen, from the backward difference of velocities.
  m3  movement along the frozen-time streamline; the matrix-exponential
      integral is truncated after K terms (default 5).
  m4  movement along the change of streamlines between the two levels;
      reduces to m2 when both gradients vanish. Its old level's series is
      the new level's series of the step before, so m4 returns that series
      with the displacement and reads it back from ``cloud.series_prev``.

m1 and m2 read velocities alone; m3 and m4 also read the velocity
gradient, and ``MoverKind.reads_gradient`` says which, so a run samples a
gradient only for m3 and m4. The movers read both levels from a
``PointCloud``, checked when they were installed, and integrate over
``dt``; backward differences span the levels' spacing ``cloud.dt``.
Velocities are (N, 2), gradients (N, 2, 2); a level m3 or m4 reads without
a gradient raises ``StructuralError``. The series
kernel works on components: each matrix-vector product is four elementwise
multiply-adds over the point axis, and its result is laid out like ``v``: a
run's column-major velocities give contiguous columns.

m3 and m4 take each level's series from ``apply_series``. The series is
linear in v, so where every point shares one gradient matrix G (a row
stride of 0, as in an analytic run) it is one (2, 2) matrix S applied to
every point. S^T is built from G's four floats by the kernel's own products
and sums in the kernel's order, so it equals the kernel's S^T on the two
unit rows bit for bit, and one matmul applies it. S^T is memoized,
read-only, on G's bytes and the coefficient tuple, so a steady field's
levels, which share G, build it once per (dt, terms, offset); the inputs
are still checked on every call. A full gradient, such as a numeric
run's, goes to the kernel row by row.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .cloud import LevelSeries, PointCloud
from .errors import (
    HistoryMissingError,
    NumericInputError,
    StructuralError,
    check_count,
    check_points,
    check_positive,
)

DEFAULT_TERMS = 5
MOVER_NAMES = ("m1", "m2", "m3", "m4")
# (dt, terms, offset) triples whose series coefficients are kept; the
# paper's sweep uses 16 (offsets 0 and 1 at 4 dts and 4 shortened dts)
SERIES_COEFFICIENTS_CACHED = 64
# (Jacobian, coefficients) pairs whose S^T is kept; a steady field's sweep
# uses 16, while an unsteady field's levels mostly miss
SERIES_MATRICES_CACHED = 64


@dataclass(frozen=True)
class MoverKind:
    name: str          # one of MOVER_NAMES
    terms: int = DEFAULT_TERMS

    def __post_init__(self):
        if self.name not in MOVER_NAMES:
            raise StructuralError(f"unknown mover {self.name!r}")
        check_count(self.terms, "series term count", 1)

    @property
    def reads_gradient(self) -> bool:
        """Whether the scheme, and so its bootstrap, reads velocity gradients:
        m3 and m4 (whose bootstrap is m3) do, m1 and m2 (bootstrap m1) do not."""
        return self.name in ("m3", "m4")

    @property
    def bootstrap(self) -> "MoverKind":
        """Scheme to use on the first step, when no history exists yet."""
        if self.name == "m2":
            return MoverKind("m1")
        if self.name == "m4":
            return MoverKind("m3", self.terms)
        return self


def _require_history(cloud: PointCloud, mover: str) -> None:
    if not cloud.has_history:
        raise HistoryMissingError(
            f"{mover} needs previous-level data; bootstrap the first step instead"
        )


def _level_gradient(grad: np.ndarray | None, mover: str, level: str) -> np.ndarray:
    if grad is None:
        raise StructuralError(
            f"{mover} reads the {level} level's velocity gradient, and the cloud holds none"
        )
    return grad


@functools.lru_cache(maxsize=SERIES_COEFFICIENTS_CACHED, typed=True)
def _series_coefficients(dt: float, terms: int, offset: int) -> tuple[float, ...]:
    """dt^p / p! for p = offset + 1 .. offset + terms. Typed, so an argument
    of another type that compares equal (1.0 for 1) fails or passes as it
    would uncached; an overflow raises anew on every call."""
    try:
        return tuple(dt**p / math.factorial(p) for p in range(offset + 1, offset + terms + 1))
    except OverflowError:
        raise NumericInputError(
            f"series coefficient dt**p / p! overflows a float (dt={dt!r}, terms={terms}, offset={offset})"
        ) from None


def _series_inputs(grad, v, dt, terms: int, offset: int):
    """The series' ``grad`` and ``v`` as checked float arrays, and its
    coefficients: the input contract of ``exp_series_apply``."""
    check_count(terms, "terms", 1)
    if check_count(offset, "offset", 0) > 1:
        raise StructuralError(f"offset must be 0 or 1, got {offset}")
    dt = float(check_positive(dt, "dt"))   # a NumPy scalar's power overflows to inf, a float's raises
    coeffs = _series_coefficients(dt, terms, offset)
    v = check_points(np.asarray(v, dtype=float), "v", finite=False)
    grad = check_points(np.asarray(grad, dtype=float), "grad", len(v), gradient=True, finite=False)
    return grad, v, coeffs


def exp_series_apply(
    grad: np.ndarray, v: np.ndarray, dt: float, terms: int, offset: int = 0
) -> np.ndarray:
    """Truncated matrix-exponential integral applied to a vector batch.

    Returns sum_{k=0}^{terms-1} grad^k v dt^(k+1+offset) / (k+1+offset)!
    evaluated by iterated matrix-vector products; grad powers are never
    formed explicitly. offset=0 is the streamline displacement series,
    offset=1 the inner sums of the change-of-streamlines scheme. Each
    product works on the components g_ij = grad[:, i, j] and w_i of
    grad^k v, row by row: w0' = g00 w0 + g01 w1, w1' = g10 w0 + g11 w1.
    A coefficient dt^p / p! too large for a float raises NumericInputError.
    ``offset`` is an integer as ``check_count`` takes one (a NumPy integer
    is accepted, a bool or a float is not) of value 0 or 1. ``grad`` may be
    a broadcast view; its stride-0 columns give the same bits as full ones.
    """
    grad, v, coeffs = _series_inputs(grad, v, dt, terms, offset)
    g00, g01, g10, g11 = grad[:, 0, 0], grad[:, 0, 1], grad[:, 1, 0], grad[:, 1, 1]
    w0, w1 = v[:, 0], v[:, 1]
    out = np.empty_like(v)
    out0, out1 = out[:, 0], out[:, 1]
    np.multiply(coeffs[0], w0, out=out0)
    np.multiply(coeffs[0], w1, out=out1)
    for c in coeffs[1:]:
        n0 = g00 * w0
        n0 += g01 * w1
        n1 = g10 * w0
        n1 += g11 * w1
        w0, w1 = n0, n1
        out0 += c * w0
        out1 += c * w1
    return out


def _build_series_matrix_t(g: tuple[float, float, float, float], coeffs: tuple[float, ...]) -> np.ndarray:
    """S^T for S = sum_k coeffs[k] G^k, G the (2, 2) matrix whose entries
    g00, g01, g10, g11 are ``g``.

    Row k is S e_k, evaluated as the kernel evaluates the unit row e_k: the
    same products and sums in the same order, each rounded once in Python
    floats as each NumPy operation rounds, so the result equals
    ``exp_series_apply`` on G and the two unit rows bit for bit.
    """
    g00, g01, g10, g11 = g
    rows = []
    for w0, w1 in ((1.0, 0.0), (0.0, 1.0)):
        s0, s1 = coeffs[0] * w0, coeffs[0] * w1
        for c in coeffs[1:]:
            w0, w1 = g00 * w0 + g01 * w1, g10 * w0 + g11 * w1
            s0 += c * w0
            s1 += c * w1
        rows.append((s0, s1))
    return np.array(rows)


@functools.lru_cache(maxsize=SERIES_MATRICES_CACHED)
def _cached_series_matrix_t(g_bytes: bytes, coeffs: tuple[float, ...]) -> np.ndarray:
    s_t = _build_series_matrix_t(struct.unpack("4d", g_bytes), coeffs)
    s_t.setflags(write=False)     # every later call with this key shares it
    return s_t


def _series_matrix_t(g: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """``_build_series_matrix_t`` of the float (2, 2) array ``g``, read-only
    and memoized on g's bytes and ``coeffs`` in an LRU: a steady field's
    levels share one Jacobian, so its m3 and m4 steps build one S^T per
    coefficient tuple. Byte keys are exact: Jacobians that differ in any
    bit, 0.0 against -0.0 included, never share an entry."""
    return _cached_series_matrix_t(g.tobytes(), coeffs)


def apply_series(grad: np.ndarray, v: np.ndarray, dt: float, terms: int, offset: int) -> np.ndarray:
    """``exp_series_apply(grad, v, dt, terms, offset)`` for a cloud's level.

    When ``grad`` has row stride 0, every row is one matrix G and the series
    is S v with S = sum_k c_k G^k. After the kernel's input checks, S^T is
    built from G's four floats with the kernel's bits (``_series_matrix_t``)
    and ``v @ S^T`` applies it, laid out like ``v``. Any other gradient goes
    to the kernel as it is.
    """
    if grad.strides[0] != 0:
        return exp_series_apply(grad, v, dt, terms, offset)
    grad, v, coeffs = _series_inputs(grad, v, dt, terms, offset)
    return np.matmul(v, _series_matrix_t(grad[0], coeffs), out=np.empty_like(v))


def move_m1(cloud: PointCloud, dt: float) -> np.ndarray:
    return cloud.velocities * dt


def move_m2(cloud: PointCloud, dt: float) -> np.ndarray:
    _require_history(cloud, "m2")
    accel = (cloud.velocities - cloud.velocities_prev) / cloud.dt
    return cloud.velocities * dt + 0.5 * accel * dt**2


def move_m3(cloud: PointCloud, dt: float, terms: int = DEFAULT_TERMS) -> np.ndarray:
    grad = _level_gradient(cloud.grad_velocities, "m3", "current")
    return apply_series(grad, cloud.velocities, dt, terms, 0)


def move_m4(cloud: PointCloud, dt: float, terms: int = DEFAULT_TERMS):
    """Displacement, and the current level's series for the next step.

    The old level's series is read from ``cloud.series_prev`` when it was
    computed with this ``dt`` and term count, and computed otherwise: only
    then is the previous level's gradient read.
    """
    _require_history(cloud, "m4")
    grad = _level_gradient(cloud.grad_velocities, "m4", "current")
    s_now = apply_series(grad, cloud.velocities, dt, terms, 1)
    old = cloud.series_prev
    if old is not None and old.dt == dt and old.terms == terms:
        s_old = old.values
    else:
        grad_prev = _level_gradient(cloud.grad_velocities_prev, "m4", "previous")
        s_old = apply_series(grad_prev, cloud.velocities_prev, dt, terms, 1)
    disp = s_now - s_old       # a new array: s_now is the next step's s_old
    disp /= cloud.dt
    disp += cloud.velocities * dt
    return disp, LevelSeries(s_now, dt, terms)


def displacement(mover: MoverKind, cloud: PointCloud, dt: float | None = None):
    """Dispatch to the scheme named by ``mover``, or to its bootstrap while
    ``cloud`` has no history: the displacement, and for m4 the current
    level's series (None for the other schemes). A given ``dt`` is a
    shortened step; the backward differences keep the spacing ``cloud.dt``."""
    dt = cloud.dt if dt is None else check_positive(dt, "dt")
    mover = mover if cloud.has_history else mover.bootstrap
    if mover.name == "m1":
        return move_m1(cloud, dt), None
    if mover.name == "m2":
        return move_m2(cloud, dt), None
    if mover.name == "m3":
        return move_m3(cloud, dt, mover.terms), None
    return move_m4(cloud, dt, mover.terms)
