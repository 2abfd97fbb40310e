"""The four point-movement schemes.

Each scheme turns a point's kinematic history into a displacement over one
time step by integrating a characteristic-velocity ODE:

  m1  velocity frozen over the step.
  m2  velocity derivative frozen, from the backward difference of velocities.
  m3  movement along the frozen-time streamline; the matrix-exponential
      integral is truncated after K terms (default 5).
  m4  movement along the change of streamlines between the two levels;
      reduces to m2 when both gradients vanish.

All functions are vectorized over points: velocities are (N, d), gradients
(N, d, d).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HistoryMissingError, NumericInputError, StructuralError

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
class MoveContext:
    """Per-step inputs for all movers, batched over points.

    ``dt_history`` is the spacing between the stored velocity levels; it
    equals ``dt`` except on a shortened final step, where the backward
    differences keep their original spacing.
    """

    dt: float
    v_n: np.ndarray         # (N, d)
    v_prev: np.ndarray      # (N, d)
    grad_n: np.ndarray      # (N, d, d)
    grad_prev: np.ndarray   # (N, d, d)
    has_history: bool
    dt_history: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise StructuralError("dt must be positive")
        if self.dt_history == 0.0:
            object.__setattr__(self, "dt_history", self.dt)
        for name in ("v_n", "grad_n"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericInputError(f"{name} contains non-finite entries")


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
    offset=1 the inner sums of the change-of-streamlines scheme.
    """
    if terms < 1:
        raise StructuralError("terms must be >= 1")
    if offset not in (0, 1):
        raise StructuralError("offset must be 0 or 1")
    grad = np.asarray(grad, dtype=float)
    v = np.asarray(v, dtype=float)
    w = v.copy()                       # grad^k v
    p = offset + 1
    out = (dt**p / math.factorial(p)) * w
    for k in range(1, terms):
        w = np.einsum("...ij,...j->...i", grad, w)
        p = k + offset + 1
        out += (dt**p / math.factorial(p)) * w
    return out


def move_m1(ctx: MoveContext) -> np.ndarray:
    return ctx.v_n * ctx.dt


def move_m2(ctx: MoveContext) -> np.ndarray:
    _require_history(ctx, "m2")
    accel = (ctx.v_n - ctx.v_prev) / ctx.dt_history
    return ctx.v_n * ctx.dt + 0.5 * accel * ctx.dt**2


def move_m3(ctx: MoveContext, terms: int = DEFAULT_TERMS) -> np.ndarray:
    return exp_series_apply(ctx.grad_n, ctx.v_n, ctx.dt, terms, offset=0)


def move_m4(ctx: MoveContext, terms: int = DEFAULT_TERMS) -> np.ndarray:
    _require_history(ctx, "m4")
    s_now = exp_series_apply(ctx.grad_n, ctx.v_n, ctx.dt, terms, offset=1)
    s_old = exp_series_apply(ctx.grad_prev, ctx.v_prev, ctx.dt, terms, offset=1)
    return ctx.v_n * ctx.dt + (s_now - s_old) / ctx.dt_history


def displacement(mover: MoverKind, ctx: MoveContext) -> np.ndarray:
    """Dispatch to the scheme named by ``mover``."""
    if mover.name == "m1":
        return move_m1(ctx)
    if mover.name == "m2":
        return move_m2(ctx)
    if mover.name == "m3":
        return move_m3(ctx, mover.terms)
    return move_m4(ctx, mover.terms)
