"""Scenario construction and the time-stepping driver.

A step does, in order: read the current-level gradient (analytic from the
field, or WLSQ-reconstructed from neighbor velocities), displace points
with the configured scheme, sample the field at the new positions and
time, and shift the history. Movement always happens before the velocity
update. The ``PointCloud`` is the one state of a step: the movers read it,
the other kernels take arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import diagnostics, gfdm, movers, neighbors
from .cloud import PointCloud, advance_history, apply_displacements, make_cloud
from .errors import LagmoveError, StructuralError, check_positive
from .fields import (
    Lissajous,
    LinearField,
    ModulatedRotation,
    RigidRotation,
    exact_lissajous_center,
)

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_TIME_EPS = 1e-12
MAX_STEPS = 10**7  # longest plan accepted; the paper's finest sweep takes 1 257 steps


@dataclass(frozen=True)
class Scenario:
    name: str
    field: object                 # velocity field with evaluate/gradient
    n_points: int
    t_end: float
    disc_center: tuple[float, float] = (0.0, 0.0)
    disc_radius: float = 1.0
    exact_diameter: float | None = None
    # exact displacement of the cloud centroid from its start, as f(t)
    exact_center_offset: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if self.n_points < 3:
            raise StructuralError("a scenario needs at least 3 points")
        check_positive(self.disc_radius, "disc radius")
        check_positive(self.t_end, "t_end")

    @property
    def smoothing_length(self) -> float:
        # 0.3 r at the paper's N = 222, then in step with the mean spacing
        # ~ r / sqrt(N), so a stencil keeps ~16 neighbors at any N
        return 0.3 * self.disc_radius * math.sqrt(222 / self.n_points)


@dataclass(frozen=True)
class RunConfig:
    mover: movers.MoverKind
    dt: float
    gradient_mode: str = "analytic"     # analytic | numeric
    radius_factor: float = 1.0
    output_stride: int = 10

    def __post_init__(self):
        check_positive(self.dt, "dt")
        check_positive(self.radius_factor, "radius factor")
        if self.gradient_mode not in ("analytic", "numeric"):
            raise StructuralError(f"unknown gradient mode {self.gradient_mode!r}")
        if self.output_stride < 1:
            raise StructuralError("output stride must be >= 1")


def sample_disc(center: tuple[float, float], radius: float, n: int) -> np.ndarray:
    """Deterministic near-uniform disc sampling.

    An even number of points sits equally spaced on the boundary circle (so
    the sampled diameter is exactly 2 r, via antipodal pairs); the interior
    follows the golden-angle sunflower layout.
    """
    if n < 3:
        raise StructuralError("need n >= 3 points")
    check_positive(radius, "radius")
    n_boundary = 2 * int(round(np.sqrt(n)))
    n_boundary = min(n_boundary, n if n % 2 == 0 else n - 1)
    n_interior = n - n_boundary

    theta_b = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    boundary = radius * np.stack([np.cos(theta_b), np.sin(theta_b)], axis=1)

    k = np.arange(n_interior)
    r = radius * np.sqrt((k + 0.5) / (n - (n_boundary + 1) / 2.0))
    theta = GOLDEN_ANGLE * k
    interior = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)

    return np.concatenate([boundary, interior]) + np.asarray(center, dtype=float)


def rotation_scenario(n: int = 222, omega: float = 1.0, *, t_end: float | None = None) -> Scenario:
    """Unit disc in rigid rotation; default duration is two full rotations."""
    return Scenario(
        name="rotation",
        field=RigidRotation(center=(0.0, 0.0), omega=omega),
        n_points=n,
        t_end=4.0 * np.pi / omega if t_end is None else t_end,
        exact_diameter=2.0,
        exact_center_offset=lambda t: np.zeros(2),
    )


def lissajous_scenario(n: int = 222, t_end: float = 3.0) -> Scenario:
    return Scenario(
        name="lissajous",
        field=Lissajous(),
        n_points=n,
        t_end=t_end,
        exact_diameter=2.0,
        exact_center_offset=lambda t: exact_lissajous_center(t) - exact_lissajous_center(0.0),
    )


def modulated_rotation_scenario(
    n: int = 222, omega0: float = 1.0, freq: float = 0.5, t_end: float = 10.0
) -> Scenario:
    """Unit disc in modulated rigid rotation.

    The default t_end = 10 spans whole modulation periods (five at
    freq = 0.5). When dt divides the period, a rate frozen at each step's
    start integrates over them to the exact angle, so an error read only at
    t_end hides m3's phase lag.
    """
    return Scenario(
        name="modulated-rotation",
        field=ModulatedRotation(center=(0.0, 0.0), omega0=omega0, modulation_freq=freq),
        n_points=n,
        t_end=t_end,
        exact_diameter=2.0,
        exact_center_offset=lambda t: np.zeros(2),
    )


def linear_field_scenario(n: int = 222, t_end: float = 2.0) -> Scenario:
    # trace-free A keeps the flow divergence-free
    return Scenario(
        name="linear-field",
        field=LinearField(A=((0.2, 1.0), (0.3, -0.2)), b=(0.5, -0.1)),
        n_points=n,
        t_end=t_end,
    )


SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "rotation": rotation_scenario,
    "lissajous": lissajous_scenario,
    "modulated-rotation": modulated_rotation_scenario,
    "linear-field": linear_field_scenario,
}


def make_scenario(name: str, **kwargs) -> Scenario:
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise StructuralError(f"unknown scenario {name!r}") from None
    return factory(**kwargs)


def _field_state(scenario: Scenario, config: RunConfig, positions, t, h):
    """Velocity and current-level gradient at given positions and time (h: WLSQ smoothing)."""
    v = scenario.field.evaluate(positions, t)
    if config.gradient_mode == "analytic":
        g = scenario.field.gradient(positions, t)
    else:
        index = neighbors.build_index(positions, config.radius_factor * h)
        g = gfdm.all_gradients(positions, v, index, h)
    return v, g


def initial_cloud(scenario: Scenario, config: RunConfig) -> PointCloud:
    positions = sample_disc(scenario.disc_center, scenario.disc_radius, scenario.n_points)
    h = scenario.smoothing_length
    v, g = _field_state(scenario, config, positions, 0.0, h)
    return make_cloud(positions, v, g, smoothing_length=h, dt=config.dt)


def step(
    cloud: PointCloud, scenario: Scenario, config: RunConfig, dt: float | None = None
) -> PointCloud:
    """Advance one step; ``movers.displacement`` picks the first step's scheme.

    A given ``dt`` is a shortened step that lands exactly on ``time + dt``:
    backward differences inside the movers keep the regular spacing, only
    the integration interval shrinks, and the returned cloud keeps the
    original dt and step numbering, with its clock pinned to the landing time.
    The m4 series the mover returns is kept for the next step, except after
    a shortened step, whose series belongs to another dt.
    """
    disp, series = movers.displacement(config.mover, cloud, dt)
    moved = apply_displacements(cloud, disp)
    if dt is None:
        t_new = moved.initial_time + (moved.step + 1) * moved.dt
    else:
        t_new = cloud.time + dt
    v_new, g_new = _field_state(scenario, config, moved.positions, t_new, moved.smoothing_length)
    if dt is None:
        return advance_history(moved, v_new, g_new, series)
    out = advance_history(moved, v_new, g_new)
    return replace(out, initial_time=t_new - out.step * out.dt)


def _record(cloud, scenario, first=None) -> diagnostics.DiagnosticsRecord:
    """Diagnostics of ``cloud``; errors are relative to the ``first`` record,
    or to the cloud itself when there is none yet."""
    c = diagnostics.centroid(cloud.positions)
    dia, vol = diagnostics.measure(cloud.positions)
    e_dia = (
        abs(dia - scenario.exact_diameter) if scenario.exact_diameter is not None else 0.0
    )
    if scenario.exact_center_offset is not None:
        start = c if first is None else first.centroid
        e_x = diagnostics.eps_x(cloud.positions, start + scenario.exact_center_offset(cloud.time))
    else:
        e_x = 0.0
    return diagnostics.DiagnosticsRecord(
        step=cloud.step,
        time=cloud.time,
        centroid=c,
        diameter=dia,
        hull_volume=vol,
        eps_dia=e_dia,
        eps_x=e_x,
        eps_V=diagnostics.eps_volume(vol if first is None else first.hull_volume, vol),
    )


def plan_steps(t_end: float, dt: float) -> tuple[int, float]:
    """Number of full steps and the leftover interval needed to hit t_end,
    which must take at most MAX_STEPS steps."""
    steps = t_end / dt
    if not steps <= MAX_STEPS:
        raise StructuralError(f"t_end / dt = {steps:.6g} steps, more than the limit of {MAX_STEPS}")
    n_full = int(np.floor(steps + 1e-9))
    remainder = t_end - n_full * dt
    if remainder <= _TIME_EPS * max(1.0, abs(t_end)):
        remainder = 0.0
    return n_full, remainder


def run(scenario: Scenario, config: RunConfig) -> list[diagnostics.DiagnosticsRecord]:
    """Full run to t_end; when dt does not divide t_end the last step is
    shortened to land exactly on it. Records every stride plus the final step."""
    n_full, remainder = plan_steps(scenario.t_end, config.dt)
    cloud = initial_cloud(scenario, config)
    first = _record(cloud, scenario)
    records = [first]

    for _ in range(n_full):
        cloud = step(cloud, scenario, config)
        if cloud.step % config.output_stride == 0:
            records.append(_record(cloud, scenario, first))
    if remainder > 0.0:
        cloud = step(cloud, scenario, config, dt=remainder)

    if records[-1].step != cloud.step or remainder > 0.0:
        records.append(replace(_record(cloud, scenario, first), time=scenario.t_end))
    return records


@dataclass(frozen=True)
class SweepCell:
    mover: str
    dt: float
    eps_dia: float
    eps_x: float
    eps_V: float
    failed: bool = False
    error: str | None = None      # "<type>: <message>" of a failed cell


def convergence_sweep(
    scenario: Scenario,
    base: RunConfig,
    dts: list[float],
    mover_names: tuple[str, ...] = movers.MOVER_NAMES,
) -> list[SweepCell]:
    """Cross product of movers and time steps; cells failing with a package
    or linear-algebra error are marked with the reason and the sweep
    continues. Sorted by (mover, dt). A stride past the last full step
    builds only the first and final record of each cell."""
    cells = []
    for name in sorted(mover_names):
        for dt in sorted(dts):
            config = replace(base, mover=movers.MoverKind(name, base.mover.terms), dt=dt)
            config = replace(config, output_stride=plan_steps(scenario.t_end, config.dt)[0] + 1)
            try:
                final = run(scenario, config)[-1]
                cells.append(SweepCell(name, dt, final.eps_dia, final.eps_x, final.eps_V))
            except (LagmoveError, np.linalg.LinAlgError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                cells.append(SweepCell(name, dt, np.nan, np.nan, np.nan, failed=True, error=error))
    return cells
