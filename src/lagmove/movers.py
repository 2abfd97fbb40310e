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
      with the displacement and reads it back through ``MoveContext``.

All functions are vectorized over points: velocities are (N, 2), gradients
(N, 2, 2). The series kernel works on components: each matrix-vector
product is four elementwise multiply-adds over the point axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HistoryMissingError, StructuralError, check_points, check_positive

DEFAULT_TERMS = 5
MOVER_NAMES = ("m1", "m2", "m3", "m4")


@dataclass(frozen=True)
class MoverKind:
    name: str          # one of MOVER_NAMES
    terms: int = DEFAULT_TERMS

    def __post_init__(self):
        if self.name not in MOVER_NAMES:
            raise StructuralError(f"unknown mover {self.name!r}")
        if self.terms < 1:
            raise StructuralError("series term count must be >= 1")

    @property
    def bootstrap(self) -> "MoverKind":
        """Scheme to use on the first step, when no history exists yet."""
        if self.name == "m2":
            return MoverKind("m1")
        if self.name == "m4":
            return MoverKind("m3", self.terms)
        return self


@dataclass(frozen=True)
class LevelSeries:
    """m4's offset-1 series of one velocity level, tagged with the time step
    and term count it was computed with; it is reused only when both match."""

    values: np.ndarray      # (N, 2)
    dt: float
    terms: int


@dataclass(frozen=True)
class MoveContext:
    """Per-step inputs for all movers, batched over points.

    ``dt_history`` is the spacing between the stored velocity levels; it
    equals ``dt`` (the default, None) except on a shortened final step,
    where the backward differences keep their original spacing.
    ``series_prev`` is m4's series of the previous level (``v_prev``,
    ``grad_prev``) from the step before, or None to compute it.

    ``v_n`` and ``grad_n`` are scanned for non-finite entries; the previous
    level (scanned when it was current) and ``series_prev`` only by shape.
    """

    dt: float
    v_n: np.ndarray         # (N, 2)
    v_prev: np.ndarray      # (N, 2)
    grad_n: np.ndarray      # (N, 2, 2)
    grad_prev: np.ndarray   # (N, 2, 2)
    has_history: bool
    dt_history: float | None = None
    series_prev: LevelSeries | None = None

    def __post_init__(self):
        check_positive(self.dt, "dt")
        if self.dt_history is None:
            object.__setattr__(self, "dt_history", self.dt)
        check_positive(self.dt_history, "dt_history")
        n = len(check_points(self.v_n, "v_n"))
        check_points(self.grad_n, "grad_n", n, gradient=True)
        check_points(self.v_prev, "v_prev", n, finite=False)
        check_points(self.grad_prev, "grad_prev", n, gradient=True, finite=False)
        if self.series_prev is not None:
            check_points(self.series_prev.values, "series_prev", n, finite=False)


def _require_history(ctx: MoveContext, mover: str) -> None:
    if not ctx.has_history:
        raise HistoryMissingError(
            f"{mover} needs previous-level data; bootstrap the first step instead"
        )


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
    """
    if terms < 1:
        raise StructuralError("terms must be >= 1")
    if offset not in (0, 1):
        raise StructuralError("offset must be 0 or 1")
    check_positive(dt, "dt")
    v = check_points(np.asarray(v, dtype=float), "v", finite=False)
    grad = check_points(np.asarray(grad, dtype=float), "grad", len(v), gradient=True, finite=False)
    g00, g01, g10, g11 = grad[:, 0, 0], grad[:, 0, 1], grad[:, 1, 0], grad[:, 1, 1]
    w0, w1 = v[:, 0], v[:, 1]
    p = offset + 1
    c = dt**p / math.factorial(p)
    out0, out1 = c * w0, c * w1
    for k in range(1, terms):
        n0 = g00 * w0
        n0 += g01 * w1
        n1 = g10 * w0
        n1 += g11 * w1
        w0, w1 = n0, n1
        p = k + offset + 1
        c = dt**p / math.factorial(p)
        out0 += c * w0
        out1 += c * w1
    return np.stack([out0, out1], axis=-1)


def move_m1(ctx: MoveContext) -> np.ndarray:
    return ctx.v_n * ctx.dt


def move_m2(ctx: MoveContext) -> np.ndarray:
    _require_history(ctx, "m2")
    accel = (ctx.v_n - ctx.v_prev) / ctx.dt_history
    return ctx.v_n * ctx.dt + 0.5 * accel * ctx.dt**2


def move_m3(ctx: MoveContext, terms: int = DEFAULT_TERMS) -> np.ndarray:
    return exp_series_apply(ctx.grad_n, ctx.v_n, ctx.dt, terms, offset=0)


def move_m4(ctx: MoveContext, terms: int = DEFAULT_TERMS) -> tuple[np.ndarray, LevelSeries]:
    """Displacement, and the current level's series for the next step.

    The old level's series is read from ``ctx.series_prev`` when it was
    computed with this step's dt and term count, and computed otherwise.
    """
    _require_history(ctx, "m4")
    s_now = exp_series_apply(ctx.grad_n, ctx.v_n, ctx.dt, terms, offset=1)
    old = ctx.series_prev
    if old is not None and old.dt == ctx.dt and old.terms == terms:
        s_old = old.values
    else:
        s_old = exp_series_apply(ctx.grad_prev, ctx.v_prev, ctx.dt, terms, offset=1)
    disp = ctx.v_n * ctx.dt + (s_now - s_old) / ctx.dt_history
    return disp, LevelSeries(s_now, ctx.dt, terms)


def displacement(mover: MoverKind, ctx: MoveContext) -> tuple[np.ndarray, LevelSeries | None]:
    """Dispatch to the scheme named by ``mover``: the displacement, and for
    m4 the current level's series (None for the other schemes)."""
    if mover.name == "m1":
        return move_m1(ctx), None
    if mover.name == "m2":
        return move_m2(ctx), None
    if mover.name == "m3":
        return move_m3(ctx, mover.terms), None
    return move_m4(ctx, mover.terms)
