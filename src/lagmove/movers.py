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

Each scheme returns its displacement as a fresh (N, 2) array, laid out
like the velocities, that no cloud holds: the step owns it and writes the
moved positions into it. m4 forms (s_now - s_old) * (1 / cloud.dt), a
multiply rather than a divide, for both gradient shapes.

m1 and m2 read velocities alone; m3 and m4 also read the velocity
gradient, and ``MoverKind.reads_gradient`` says which, so a run samples a
gradient only for m3 and m4. The movers read both levels from a
``PointCloud``, checked when they were installed, and integrate over
``dt``; backward differences span the levels' spacing ``cloud.dt``.
Velocities are (N, 2), gradients one (2, 2) matrix or (N, 2, 2); a level
m3 or m4 reads without a gradient raises ``StructuralError``.

``exp_series_apply`` is the one series entry point, for m3, m4 and the
checks alike. It checks its arrays on every call, and its scalars (terms,
offset, dt) once per set, inside the memoized ``_series_coefficients``;
the memo keeps no exception, so a malformed set raises on every call.
Its two routes share one routine, ``_series``, which runs the iterated
products on Python floats or on NumPy columns with the same bits. A (2, 2) gradient G (an analytic
run's Jacobian) takes v @ S^T, S^T built by ``_series`` from G's four
floats on the two unit rows and memoized, so a steady field's levels build
it once per (dt, terms, offset). An (N, 2, 2) gradient, a numeric run's or
a single row, goes row by row: each matrix-vector product is four
elementwise multiply-adds over the point axis. Either result is laid out
like ``v``.
"""
from __future__ import annotations

import functools
import math
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
    """dt^p / p! for p = offset + 1 .. offset + terms, after the checks of
    ``exp_series_apply``'s scalars, so a set of them is checked once. The
    cache keeps no exception: a malformed argument, or an overflow, raises
    anew on every call. Typed, so an argument of another type that compares
    equal (1.0 for 1) fails or passes as it would uncached."""
    check_count(terms, "terms", 1)
    if check_count(offset, "offset", 0) > 1:
        raise StructuralError(f"offset must be 0 or 1, got {offset}")
    dt = float(check_positive(dt, "dt"))   # a NumPy scalar's power overflows to inf, a float's raises
    try:
        return tuple(dt**p / math.factorial(p) for p in range(offset + 1, offset + terms + 1))
    except OverflowError:
        raise NumericInputError(
            f"series coefficient dt**p / p! overflows a float (dt={dt!r}, terms={terms}, offset={offset})"
        ) from None


def _series(g, w, coeffs: tuple[float, ...]):
    """sum_k coeffs[k] G^k w, as the pair (s0, s1), by iterated products:
    w0' = g00 w0 + g01 w1, w1' = g10 w0 + g11 w1, s += c w. ``g`` is G's
    rows ((g00, g01), (g10, g11)) and ``w`` is (w0, w1), all Python floats
    or all NumPy columns over the points. Each operation rounds once in
    either, so a column's entries equal the floats' run on its rows, bit
    for bit; the in-place sums update arrays this routine made."""
    (g00, g01), (g10, g11) = g
    w0, w1 = w
    s0, s1 = coeffs[0] * w0, coeffs[0] * w1
    for c in coeffs[1:]:
        n0 = g00 * w0
        n0 += g01 * w1
        n1 = g10 * w0
        n1 += g11 * w1
        w0, w1 = n0, n1
        s0 += c * w0
        s1 += c * w1
    return s0, s1


@functools.lru_cache(maxsize=SERIES_MATRICES_CACHED)
def _series_matrix_t(g_bytes: bytes, coeffs: tuple[float, ...]) -> np.ndarray:
    """S^T for S = sum_k coeffs[k] G^k, G the (2, 2) float matrix whose
    C-order bytes are ``g_bytes``: row k is ``_series`` of the unit row e_k
    on G's four floats. Read-only, since every later call with its key
    shares it. Byte keys are exact: Jacobians that differ in any bit, 0.0
    against -0.0 included, never share an entry."""
    g = np.frombuffer(g_bytes).reshape(2, 2).tolist()
    s_t = np.array([_series(g, (1.0, 0.0), coeffs), _series(g, (0.0, 1.0), coeffs)])
    s_t.setflags(write=False)
    return s_t


def exp_series_apply(
    grad: np.ndarray, v: np.ndarray, dt: float, terms: int, offset: int = 0
) -> np.ndarray:
    """Truncated matrix-exponential integral applied to a vector batch.

    Returns sum_{k=0}^{terms-1} grad^k v dt^(k+1+offset) / (k+1+offset)!,
    laid out like ``v``, by iterated matrix-vector products (``_series``);
    grad powers are never formed explicitly. offset=0 is the streamline
    displacement series, offset=1 the inner sums of the change-of-streamlines
    scheme. A (2, 2) ``grad`` is one matrix G for every row, as an analytic
    run installs, so the series is v @ S^T, S^T built from G's four floats
    and memoized. An (N, 2, 2) ``grad``, one row included, runs the
    products on its component columns, row by row. A coefficient
    dt^p / p! too large for a float raises NumericInputError. ``offset`` is an integer as ``check_count`` takes
    one (a NumPy integer is accepted, a bool or a float is not) of value 0 or 1.
    """
    try:
        coeffs = _series_coefficients(dt, terms, offset)
    except TypeError:   # an unhashable argument: checked, and refused, uncached
        coeffs = _series_coefficients.__wrapped__(dt, terms, offset)
    v = check_points(np.asarray(v, dtype=float), "v", finite=False)
    grad = np.asarray(grad, dtype=float)
    if grad.ndim == 2:
        check_points(grad, "grad", 2, finite=False)
        return np.matmul(v, _series_matrix_t(grad.tobytes(), coeffs), out=np.empty_like(v))
    check_points(grad, "grad", len(v), gradient=True, finite=False)
    g = ((grad[:, 0, 0], grad[:, 0, 1]), (grad[:, 1, 0], grad[:, 1, 1]))
    out = np.empty_like(v)
    out[:, 0], out[:, 1] = _series(g, (v[:, 0], v[:, 1]), coeffs)
    return out


def move_m1(cloud: PointCloud, dt: float) -> np.ndarray:
    return cloud.velocities * dt


def move_m2(cloud: PointCloud, dt: float) -> np.ndarray:
    _require_history(cloud, "m2")
    accel = (cloud.velocities - cloud.velocities_prev) / cloud.dt
    return cloud.velocities * dt + 0.5 * accel * dt**2


def move_m3(cloud: PointCloud, dt: float, terms: int = DEFAULT_TERMS) -> np.ndarray:
    grad = _level_gradient(cloud.grad_velocities, "m3", "current")
    return exp_series_apply(grad, cloud.velocities, dt, terms, 0)


def move_m4(cloud: PointCloud, dt: float, terms: int = DEFAULT_TERMS):
    """Displacement, and the current level's series for the next step.

    The displacement is v dt + (s_now - s_old) * (1 / cloud.dt), in a new
    array apart from the returned series. The old level's series is read
    from ``cloud.series_prev`` when it was computed with this ``dt`` and
    term count, and computed otherwise: only then is the previous level's
    gradient read.
    """
    _require_history(cloud, "m4")
    grad = _level_gradient(cloud.grad_velocities, "m4", "current")
    s_now = exp_series_apply(grad, cloud.velocities, dt, terms, 1)
    old = cloud.series_prev
    if old is not None and old.dt == dt and old.terms == terms:
        s_old = old.values
    else:
        grad_prev = _level_gradient(cloud.grad_velocities_prev, "m4", "previous")
        s_old = exp_series_apply(grad_prev, cloud.velocities_prev, dt, terms, 1)
    disp = s_now - s_old       # a new array: s_now is the next step's s_old
    disp *= 1.0 / cloud.dt
    disp += cloud.velocities * dt
    return disp, LevelSeries(s_now, dt, terms)


def displacement(mover: MoverKind, cloud: PointCloud, dt: float | None = None):
    """Dispatch to the scheme named by ``mover``, or to its bootstrap while
    ``cloud`` has no history: the displacement, and for m4 the current
    level's series (None for the other schemes). The displacement is a
    fresh array that the caller owns and may overwrite. A given ``dt`` is a
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
