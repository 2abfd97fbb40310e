"""The scenario table and the time-stepping driver.

``SCENARIOS`` maps each of the paper's test cases to its ``Scenario`` at
the paper's size ``PAPER_N`` and its default t_end; ``make_scenario`` sets
the size and, when given, the t_end. A point count and an output stride
are checked by ``errors.check_count``.

A step does, in order: displace points with the configured scheme, sample
the field at the new positions and time, and install the level as the next
cloud. The mover's displacement is a fresh array that the step owns, so the
moved positions are written into it and no other (N, 2) array is made for
them; the input cloud's arrays are never written. Movement always happens
before the velocity update. A level holds a gradient, analytic or
WLSQ-reconstructed from neighbor velocities, only when the scheme reads
one (``MoverKind.reads_gradient``: m3 and m4); an m1 or m2 run builds no
gradient, neighbor index or fit. Every field is affine, so an analytic
gradient is what ``field.gradient`` returns: its one (2, 2) Jacobian.
A numeric gradient is a full (N, 2, 2) array. m3 and
m4 take either to ``movers.exp_series_apply``, the one series entry
point: it applies a (2, 2) gradient's series as one matrix, which differs
from the per-row series only at rounding level, and a full array's row by
row. The ``PointCloud`` is the one state of a step: the movers read it,
the other kernels take arrays.

A run is a stream of clouds. ``clouds`` is the one loop over a step plan
(``plan_steps``): it yields the initial cloud, then the cloud after each
step, the shortened last one included, and holds no earlier cloud.
``run`` records every ``output_stride``th cloud of the stream and its last;
``convergence_sweep`` builds the start record once for all its cells,
since they start from the same disc, and one final record per cell.

A step ignores overflow and invalid results, so that an overflow anywhere
in it reaches its caller once, as a ``NumericInputError`` from a finite
check, and never as a warning. A stream pays for that once: when it
starts, ``clouds`` copies the caller's context, sets NumPy's error state
inside the copy to ignore both (NumPy 2 keeps that state in a context
variable) and flags the copy as guarded, and then runs each step in it by
``Context.run``, which costs about a tenth of entering ``np.errstate``.
The steps keep the caller's other settings as they were when the stream
started, and the caller's own state never changes. A step called outside
a stream enters its own ``np.errstate``.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import diagnostics, gfdm, movers, neighbors
from .cloud import PointCloud, advance_history, make_cloud
from .errors import LagmoveError, StructuralError, check_center, check_count, check_positive
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
PAPER_N = 222  # the paper's disc size
MIN_POINTS = 4  # fewest points sample_disc lays out off one line; 3 are collinear
GRADIENT_MODES = ("analytic", "numeric")


@dataclass(frozen=True)
class Scenario:
    name: str
    field: object                 # velocity field with evaluate/jacobian/gradient
    n_points: int
    t_end: float
    disc_center: tuple[float, float] = (0.0, 0.0)
    disc_radius: float = 1.0
    exact_diameter: float | None = None
    # exact displacement of the cloud centroid from its start, as f(t)
    exact_center_offset: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        check_count(self.n_points, "n_points", MIN_POINTS)
        check_center(self.disc_center, "disc center")
        check_positive(self.disc_radius, "disc radius")
        check_positive(self.t_end, "t_end")

    @property
    def smoothing_length(self) -> float:
        # 0.3 r at the paper's size PAPER_N, then in step with the mean spacing
        # ~ r / sqrt(N), so a stencil keeps ~16 neighbors at any N
        return 0.3 * self.disc_radius * math.sqrt(PAPER_N / self.n_points)


@dataclass(frozen=True)
class RunConfig:
    mover: movers.MoverKind
    dt: float
    gradient_mode: str = "analytic"     # one of GRADIENT_MODES
    output_stride: int = 10

    def __post_init__(self):
        check_positive(self.dt, "dt")
        if self.gradient_mode not in GRADIENT_MODES:
            raise StructuralError(f"unknown gradient mode {self.gradient_mode!r}")
        check_count(self.output_stride, "output stride", 1)


def sample_disc(center: tuple[float, float], radius: float, n: int) -> np.ndarray:
    """Deterministic near-uniform disc sampling.

    An even number of points sits equally spaced on the boundary circle (so
    the sampled diameter is exactly 2 r, via antipodal pairs); the interior
    follows the golden-angle sunflower layout.
    """
    check_count(n, "n", MIN_POINTS)
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


def _no_offset(t: float) -> np.ndarray:
    return np.zeros(2)


def _lissajous_offset(t: float) -> np.ndarray:
    return exact_lissajous_center(t) - exact_lissajous_center(0.0)


SCENARIOS: dict[str, Scenario] = {
    # unit disc, two full rotations
    "rotation": Scenario(
        "rotation", RigidRotation(), PAPER_N, 4.0 * np.pi,
        exact_diameter=2.0, exact_center_offset=_no_offset,
    ),
    "lissajous": Scenario(
        "lissajous", Lissajous(), PAPER_N, 3.0,
        exact_diameter=2.0, exact_center_offset=_lissajous_offset,
    ),
    # t_end = 10 spans five whole modulation periods. When dt divides the
    # period, a rate frozen at each step's start integrates over them to
    # the exact angle, so an error read only at t_end hides m3's phase lag.
    "modulated-rotation": Scenario(
        "modulated-rotation", ModulatedRotation(), PAPER_N, 10.0,
        exact_diameter=2.0, exact_center_offset=_no_offset,
    ),
    # trace-free A keeps the flow divergence-free
    "linear-field": Scenario(
        "linear-field", LinearField(A=((0.2, 1.0), (0.3, -0.2)), b=(0.5, -0.1)), PAPER_N, 2.0,
    ),
}


def make_scenario(name: str, n: int = PAPER_N, t_end: float | None = None) -> Scenario:
    """Row ``name`` of the table with ``n`` points, run to ``t_end`` (the row's own when None)."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise StructuralError(f"unknown scenario {name!r}") from None
    return replace(scenario, n_points=n, t_end=scenario.t_end if t_end is None else t_end)


def _field_state(scenario: Scenario, config: RunConfig, positions, t):
    """Velocity and current-level gradient at given positions and time. The
    gradient is None for a scheme that reads none. An analytic gradient is
    ``field.gradient``'s one (2, 2) Jacobian; a numeric one is the full
    (N, 2, 2) WLSQ array."""
    v = scenario.field.evaluate(positions, t)
    if not config.mover.reads_gradient:
        g = None
    elif config.gradient_mode == "analytic":
        g = scenario.field.gradient(positions, t)
    else:
        h = scenario.smoothing_length
        index = neighbors.build_index(positions, h)
        g = gfdm.all_gradients(positions, v, index, h)
    return v, g


def initial_cloud(scenario: Scenario, config: RunConfig) -> PointCloud:
    # column-major; every kernel allocates like its input, so this sets the run's layout
    positions = np.asfortranarray(
        sample_disc(scenario.disc_center, scenario.disc_radius, scenario.n_points)
    )
    v, g = _field_state(scenario, config, positions, 0.0)
    return make_cloud(positions, v, g, dt=config.dt)


# True only inside a stream's own context, where ``_guard`` has set NumPy to
# ignore overflow and invalid results once for all of the stream's steps
_GUARDED = contextvars.ContextVar("lagmove_step_guarded", default=False)
_NO_GUARD = contextlib.nullcontext()


def _guard() -> None:
    np.seterr(over="ignore", invalid="ignore")
    _GUARDED.set(True)


def step(
    cloud: PointCloud, scenario: Scenario, config: RunConfig, dt: float | None = None
) -> PointCloud:
    """Advance one step; ``movers.displacement`` picks the first step's scheme.

    The points move once, the sum formed in the displacement array the
    mover returned, the field is sampled at the moved positions, and
    ``advance_history`` builds the next cloud from both. The move and the
    sampling ignore overflow and invalid results, so an overflow in any
    scheme or gradient mode is reported once, as a ``NumericInputError``,
    by a finite check. A given ``dt`` is a shortened step that lands
    exactly on ``time + dt``: backward differences
    inside the movers keep the regular spacing, only the integration
    interval shrinks, and the returned cloud keeps the original dt and step
    numbering, with its clock pinned to the landing time. The m4 series the
    mover returns is kept for the next step; its (dt, terms) tag keeps a
    shortened step's series from being read by a step of another dt.
    Inside a stream's guarded context the step enters no errstate of its
    own; the context already ignores what it would.
    """
    with _NO_GUARD if _GUARDED.get() else np.errstate(over="ignore", invalid="ignore"):
        disp, series = movers.displacement(config.mover, cloud, dt)
        positions = np.add(disp, cloud.positions, out=disp)
        if dt is None:
            t_new = cloud.initial_time + (cloud.step + 1) * cloud.dt
        else:
            t_new = cloud.time + dt
        v_new, g_new = _field_state(scenario, config, positions, t_new)
    out = advance_history(cloud, positions, v_new, g_new, series)
    if dt is None:
        return out
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
        e_x = float(np.linalg.norm(c - (start + scenario.exact_center_offset(cloud.time))))
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
        raise StructuralError(f"t_end / dt = {t_end!r} / {dt!r} = {steps:.6g} steps, more than {MAX_STEPS}")
    n_full = int(np.floor(steps + 1e-9))
    remainder = t_end - n_full * dt
    if remainder <= _TIME_EPS * max(1.0, abs(t_end)):
        remainder = 0.0
    return n_full, remainder


def clouds(scenario: Scenario, config: RunConfig):
    """The run's clouds, one at a time: the scenario's initial cloud, then
    the cloud after each step of ``plan_steps(scenario.t_end, config.dt)``,
    the shortened last step included, its clock pinned to its landing time.
    The plan is checked before the first cloud is built. Only the current
    cloud is held, so a run's memory does not grow with its steps. Every
    step runs in one context guarded when the stream starts, and is looked
    up on this module at each call; the clouds are yielded outside it."""
    n_full, remainder = plan_steps(scenario.t_end, config.dt)
    quiet = contextvars.copy_context()
    quiet.run(_guard)
    cloud = initial_cloud(scenario, config)
    yield cloud
    for _ in range(n_full):
        cloud = quiet.run(step, cloud, scenario, config)
        yield cloud
    if remainder > 0.0:
        cloud = quiet.run(step, cloud, scenario, config, dt=remainder)
        yield cloud


def run(scenario: Scenario, config: RunConfig) -> list[diagnostics.DiagnosticsRecord]:
    """Full run to t_end; when dt does not divide t_end the last step is
    shortened to land exactly on it. Records every ``output_stride``th full
    step of the stream, and its final cloud, stamped t_end whatever the
    stride: its clock, step * dt, may differ from t_end in the last bit.
    A plan of no steps has one record, the start, stamped t_end too."""
    n_full = plan_steps(scenario.t_end, config.dt)[0]
    stream = clouds(scenario, config)
    cloud = next(stream)
    first = _record(cloud, scenario)
    records = [first]
    for cloud in stream:
        if cloud.step % config.output_stride == 0 and cloud.step <= n_full:
            records.append(_record(cloud, scenario, first))
    if records[-1].step != cloud.step:
        records.append(_record(cloud, scenario, first))
    records[-1] = replace(records[-1], time=scenario.t_end)
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


def convergence_sweep(scenario: Scenario, base: RunConfig, dts: list[float]) -> list[SweepCell]:
    """Cross product of movers and time steps, sorted by (mover, dt). Every
    dt and its step plan are checked before the first cell runs, and a dt
    listed twice is rejected there too; a cell failing with a package error
    while it runs is marked with the reason and the sweep continues. Every
    cell starts from the same positions, so the start record is built once,
    by the first cell that gets there, and each cell then measures only the
    last cloud of its stream."""
    for i, dt in enumerate(dts):
        if dt in dts[:i]:
            raise StructuralError(f"dt {dt!r} is listed more than once")
        plan_steps(scenario.t_end, check_positive(dt, "dt"))
    cells, first = [], None
    for name in movers.MOVER_NAMES:
        mover = movers.MoverKind(name, base.mover.terms)
        for dt in sorted(dts):
            stream = clouds(scenario, replace(base, mover=mover, dt=dt))
            try:
                cloud = next(stream)
                if first is None:
                    first = _record(cloud, scenario)
                for cloud in stream:
                    pass
                final = _record(cloud, scenario, first)
                cells.append(SweepCell(name, dt, final.eps_dia, final.eps_x, final.eps_V))
            except LagmoveError as exc:
                error = f"{type(exc).__name__}: {exc}"
                cells.append(SweepCell(name, dt, np.nan, np.nan, np.nan, failed=True, error=error))
    return cells
