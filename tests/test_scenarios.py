from dataclasses import replace
import math
import warnings
import weakref

import numpy as np
import pytest

from lagmove import diagnostics, gfdm, movers, neighbors, scenarios
from lagmove.cloud import PointCloud, make_cloud
from lagmove.errors import DegenerateGeometryError, NumericInputError, StructuralError
from lagmove.fields import (
    LinearField,
    Lissajous,
    ModulatedRotation,
    RigidRotation,
    exact_lissajous_center,
)
from lagmove.movers import MoverKind
from lagmove.neighbors import build_index
from lagmove.scenarios import (
    GRADIENT_MODES,
    MAX_STEPS,
    PAPER_N,
    SCENARIOS,
    RunConfig,
    Scenario,
    clouds,
    convergence_sweep,
    initial_cloud,
    make_scenario,
    plan_steps,
    run,
    sample_disc,
    step,
)
from lagmove.validate import SCHEME_RECURRENCE_BOUND, scheme_recurrence_error


def config(mover="m1", dt=0.05, **kw):
    return RunConfig(mover=MoverKind(mover), dt=dt, **kw)


def test_non_finite_disc_radius_rejected():
    # no CLI flag sets the radius; dt and t_end are covered in test_cli
    sc = make_scenario("rotation")
    for bad in (np.nan, np.inf):
        with pytest.raises(StructuralError):
            replace(sc, disc_radius=bad)


# field, default t_end and exact diameter of each row, which every pinned result depends on
TABLE = {
    "rotation": (RigidRotation(center=(0.0, 0.0), omega=1.0), 4.0 * np.pi, 2.0),
    "lissajous": (Lissajous(), 3.0, 2.0),
    "modulated-rotation": (ModulatedRotation(center=(0.0, 0.0), omega0=1.0, modulation_freq=0.5), 10.0, 2.0),
    "linear-field": (LinearField(A=((0.2, 1.0), (0.3, -0.2)), b=(0.5, -0.1)), 2.0, None),
}


def test_table_holds_the_four_scenarios_in_order():
    assert list(SCENARIOS) == list(TABLE)
    assert all(isinstance(sc, Scenario) and sc.name == name for name, sc in SCENARIOS.items())


@pytest.mark.parametrize("name", list(TABLE))
def test_table_rows_keep_their_defaults(name):
    field, t_end, diameter = TABLE[name]
    for sc in (make_scenario(name), make_scenario(name, t_end=None), SCENARIOS[name]):
        assert (sc.field, sc.t_end, sc.n_points, sc.exact_diameter) == (field, t_end, 222, diameter)
        assert (sc.disc_center, sc.disc_radius) == ((0.0, 0.0), 1.0)
    sized = make_scenario(name, n=500, t_end=0.5)
    assert (sized.field, sized.n_points, sized.t_end) == (field, 500, 0.5)


def test_table_centroid_offsets():
    assert SCENARIOS["linear-field"].exact_center_offset is None
    for t in (0.0, 0.7, 3.0):
        for name in ("rotation", "modulated-rotation"):
            assert np.array_equal(SCENARIOS[name].exact_center_offset(t), [0.0, 0.0])
        assert np.array_equal(
            SCENARIOS["lissajous"].exact_center_offset(t),
            exact_lissajous_center(t) - exact_lissajous_center(0.0),
        )


def test_unknown_scenario_rejected():
    with pytest.raises(StructuralError, match="unknown scenario 'vortex'"):
        make_scenario("vortex")


def test_default_smoothing_length_is_the_papers_at_its_size():
    assert make_scenario("rotation").smoothing_length == 0.3


def test_smoothing_length_follows_replaced_size_and_radius():
    sc = make_scenario("rotation")
    assert replace(sc, n_points=20000).smoothing_length == make_scenario("rotation", n=20000).smoothing_length
    assert replace(sc, n_points=20000).smoothing_length == pytest.approx(0.3 * math.sqrt(222 / 20000))
    assert replace(sc, disc_radius=0.15).smoothing_length == pytest.approx(0.045)


@pytest.mark.parametrize("n", [2000, 20000])
def test_default_smoothing_length_keeps_stencils_small(n):
    # h follows the mean spacing, so the stencil stays near its size at N = 222
    sc = make_scenario("rotation", n=n)
    pos = sample_disc(sc.disc_center, sc.disc_radius, n)
    assert 12.0 <= build_index(pos, sc.smoothing_length).neighbor_count().mean() <= 25.0


def test_sample_disc_contract():
    # three points of this layout are collinear: two antipodes and one between
    for n in (1, 3):
        with pytest.raises(StructuralError):
            sample_disc((0.0, 0.0), 1.0, n)
    pts = sample_disc((0.0, 0.0), 1.0, 4)
    assert pts.shape == (4, 2)
    assert len(np.unique(pts, axis=0)) == 4
    diameter, area = diagnostics.measure(pts)
    assert diameter == pytest.approx(2.0) and area > 0.0


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_smallest_discs_run_every_scenario(n, mode):
    for name in SCENARIOS:
        for mover in movers.MOVER_NAMES:
            final = run(make_scenario(name, n, t_end=0.3), config(mover, dt=0.1, gradient_mode=mode))[-1]
            assert final.hull_volume > 0.0 and np.isfinite(final.eps_x)


def test_sample_disc_containment_and_spread():
    pts = sample_disc((0.5, -0.5), 2.0, 222)
    assert np.all(np.linalg.norm(pts - [0.5, -0.5], axis=1) <= 2.0 + 1e-12)
    diff = pts[:, None, :] - pts[None, :, :]
    assert np.sqrt((diff**2).sum(-1)).max() >= 2 * 2.0 * (1 - 2 / np.sqrt(222))


def test_sample_disc_centroid_regression():
    # frozen from the first run of this layout
    pts = sample_disc((0.0, 0.0), 1.0, 222)
    assert np.allclose(pts.mean(axis=0), [0.00190992, -0.00136085], atol=1e-7)


def test_sample_disc_deterministic():
    a = sample_disc((0.0, 0.0), 1.0, 100)
    b = sample_disc((0.0, 0.0), 1.0, 100)
    assert np.array_equal(a, b)


def test_plan_steps():
    assert plan_steps(3.0, 0.05) == (60, 0.0)
    n, rem = plan_steps(4 * np.pi, 0.01)
    assert n == 1256
    assert rem == pytest.approx(4 * np.pi - 12.56, abs=1e-12)
    assert plan_steps(1.0, 1.0 / MAX_STEPS)[0] == MAX_STEPS


@pytest.mark.parametrize("t_end, dt", [(0.5, 1e-300), (1.0, 5e-324), (1.0, 0.99 / MAX_STEPS)])
def test_plan_steps_rejects_plans_past_the_limit(t_end, dt):
    with pytest.raises(StructuralError, match=str(MAX_STEPS)):
        plan_steps(t_end, dt)


def test_single_step_composition():
    # one m1 step on the rotation field from (1, 0)
    sc = make_scenario("rotation")
    cfg = config("m1", dt=0.1)
    pos = np.array([[1.0, 0.0]])
    cloud = make_cloud(
        pos,
        sc.field.evaluate(pos, 0.0),
        sc.field.gradient(pos, 0.0),
        dt=0.1,
    )
    out = step(cloud, sc, cfg)
    assert np.allclose(out.positions, [[1.0, 0.1]])
    assert np.allclose(out.velocities, sc.field.evaluate(np.array([[1.0, 0.1]]), 0.1))
    assert out.has_history


def test_run_final_time_and_payload():
    sc = make_scenario("lissajous", t_end=1.0)
    records = run(sc, config("m2", dt=0.05))
    assert records[-1].time == pytest.approx(1.0, abs=1e-12)
    assert records[0].step == 0


@pytest.mark.parametrize("stride", [1, 2, 3, 10])
def test_final_record_is_stamped_t_end_at_any_stride(stride):
    # 3 * 0.1 is 0.30000000000000004, so the last cloud's clock is off t_end
    # in the last bit; its record reads t_end whether or not it is on the stride
    sc = make_scenario("rotation", t_end=0.3)
    records = run(sc, config("m1", dt=0.1, output_stride=stride))
    assert records[-1].step == 3 and records[-1].time == 0.3
    assert [r.step for r in records] == sorted({0, 3, *range(0, 4, stride)})


def test_a_plan_of_no_steps_records_the_start_stamped_t_end():
    # a t_end within rounding of 0 plans no step: the one record is the start
    records = run(make_scenario("rotation", t_end=1e-13), config("m1", dt=0.1))
    assert [(r.step, r.time, r.eps_dia) for r in records] == [(0, 1e-13, 0.0)]


def test_short_final_step_lands_on_t_end():
    sc = make_scenario("rotation", t_end=1.03)  # 20 full steps of 0.05 + 0.03
    records = run(sc, config("m2", dt=0.05))
    assert records[-1].time == pytest.approx(1.03, abs=1e-12)


def test_short_step_keeps_history_spacing():
    # m2's backward difference spans the stored levels 0.05 apart, while
    # the integration interval shrinks to the short step
    sc = make_scenario("lissajous")
    cfg = config("m2", dt=0.05)
    cloud = initial_cloud(sc, cfg)
    for _ in range(3):
        cloud = step(cloud, sc, cfg)
    dt_s = 0.02
    out = step(cloud, sc, cfg, dt=dt_s)
    assert out.time == pytest.approx(3 * 0.05 + dt_s, abs=1e-12)
    assert out.step == 4
    v, v_prev = cloud.velocities, cloud.velocities_prev
    expected = v * dt_s + 0.5 * (v - v_prev) / 0.05 * dt_s**2
    assert np.allclose(out.positions - cloud.positions, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "name, mover, mode",
    [   # the default, analytic, mode goes unnamed in a case id; the numeric mode is named
        pytest.param(name, mover, mode, id=f"{name}-{mover}" + ("-numeric" if mode == "numeric" else ""))
        for mode in GRADIENT_MODES for name in SCENARIOS for mover in movers.MOVER_NAMES
    ],
)
def test_step_follows_the_scheme_recurrence(name, mover, mode):
    # 40 steps of 0.05 and a shortened one of 0.03, through the bootstrap
    assert scheme_recurrence_error(name, mover, mode) <= SCHEME_RECURRENCE_BOUND


@pytest.mark.parametrize("history", [False, True], ids=["fresh", "history"])
@pytest.mark.parametrize("name", movers.MOVER_NAMES)
def test_step_rejects_non_finite_velocities(name, history):
    # the cloud was built around its checks; the step still scans what it moves
    sc = make_scenario("rotation", n=20)
    cfg = config(name, dt=0.05)
    cloud = initial_cloud(sc, cfg)
    if history:
        cloud = step(cloud, sc, cfg)
    bad = cloud.velocities.copy()
    bad[3, 0] = np.nan
    with pytest.raises(NumericInputError):
        step(replace(cloud, velocities=bad), sc, cfg)


def test_overflowing_positions_raise_numeric_input_error_without_a_warning():
    # m1 at dt 1 multiplies the linear field's positions by ~1.58 per step
    sc = make_scenario("linear-field", t_end=2000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericInputError, match="new_positions contains non-finite entries"):
            run(sc, config("m1", dt=1.0, output_stride=100_000))


@pytest.mark.parametrize("mode", GRADIENT_MODES)
@pytest.mark.parametrize("name", movers.MOVER_NAMES)
def test_every_overflow_in_a_step_raises_numeric_input_error_without_a_warning(name, mode):
    # at dt 100 each scheme multiplies the linear field's positions by 59 or
    # more per step; whichever product overflows first, in the move or in
    # the sampling, the step reports it through a finite check
    sc = make_scenario("linear-field", t_end=100_000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericInputError):
            run(sc, config(name, dt=100.0, gradient_mode=mode, output_stride=100_000))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_run_installs_broadcast_analytic_and_full_numeric_gradients(monkeypatch, mode, name):
    # an analytic gradient is one (2, 2) matrix for every row, a numeric one
    # the fit's full (N, 2, 2) array
    installed = []
    advance = scenarios.advance_history

    def recorded(cloud, positions, velocities, gradients, series=None):
        installed.append(gradients)
        return advance(cloud, positions, velocities, gradients, series)

    monkeypatch.setattr(scenarios, "advance_history", recorded)
    sc = make_scenario(name, t_end=0.25)
    cfg = config("m4", dt=0.05, gradient_mode=mode)
    run(sc, cfg)
    installed.append(initial_cloud(sc, cfg).grad_velocities)
    assert len(installed) == 6
    for g in installed:
        if mode == "analytic":
            assert g.shape == (2, 2)
        else:
            assert g.shape == (PAPER_N, 2, 2) and g.flags.c_contiguous and g.flags.writeable


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["analytic", "numeric"])
def test_run_stays_column_major(monkeypatch, mode, name):
    # every kernel allocates like its input, so the layout initial_cloud sets holds
    installed = []
    advance = scenarios.advance_history

    def recorded(cloud, positions, velocities, gradients, series=None):
        installed.append((positions, velocities, series))
        return advance(cloud, positions, velocities, gradients, series)

    monkeypatch.setattr(scenarios, "advance_history", recorded)
    sc = make_scenario(name, t_end=0.27)   # 5 full steps and a shortened one
    cfg = config("m4", dt=0.05, gradient_mode=mode)
    first = initial_cloud(sc, cfg)
    run(sc, cfg)
    assert len(installed) == 6
    assert installed[0][2] is None   # the first step is m3's: no series
    arrays = [first.positions, first.velocities]
    for positions, velocities, series in installed:
        arrays += [positions, velocities] + ([] if series is None else [series.values])
    assert len(arrays) == 2 + 6 * 2 + 5
    for a in arrays:
        assert a.shape == (PAPER_N, 2) and a.flags.f_contiguous and not a.flags.c_contiguous


class GradientSpy:
    """A field that keeps every array its ``gradient`` returns."""

    def __init__(self, field):
        self._field = field
        self.returned = []

    def gradient(self, x, t):
        self.returned.append(self._field.gradient(x, t))
        return self.returned[-1]

    def __getattr__(self, name):
        return getattr(self._field, name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_analytic_run_installs_the_field_gradient_itself(monkeypatch, name):
    # one path: every cloud holds the very array field.gradient returned
    installed = []
    for builder in ("make_cloud", "advance_history"):
        def recorded(*args, _build=getattr(scenarios, builder), **kwargs):
            cloud = _build(*args, **kwargs)
            installed.append(cloud.grad_velocities)
            return cloud

        monkeypatch.setattr(scenarios, builder, recorded)
    spy = GradientSpy(SCENARIOS[name].field)
    # 5 full steps and a shortened one
    run(replace(make_scenario(name, t_end=0.27), field=spy), config("m4", dt=0.05))
    assert len(installed) == len(spy.returned) == 7
    assert all(g is r for g, r in zip(installed, spy.returned))


def installed_clouds(monkeypatch) -> list:
    """Every cloud ``make_cloud`` and ``advance_history`` build in a run."""
    clouds = []
    for name in ("make_cloud", "advance_history"):
        def recorded(*args, _build=getattr(scenarios, name), **kwargs):
            clouds.append(_build(*args, **kwargs))
            return clouds[-1]

        monkeypatch.setattr(scenarios, name, recorded)
    return clouds


def fit_calls(monkeypatch) -> list:
    """The name of every neighbor-index build and WLSQ fit, in call order."""
    calls = []
    for module, name in ((neighbors, "build_index"), (gfdm, "all_gradients")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mover", ["m1", "m2", "m3", "m4"])
@pytest.mark.parametrize("mode", ["analytic", "numeric"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_only_m3_and_m4_sample_a_gradient(monkeypatch, name, mode, mover):
    # m1 and m2 read velocities alone: no field gradient, neighbor index or
    # fit, and None at both gradient levels; m3 and m4 hold one at every level
    clouds, fits = installed_clouds(monkeypatch), fit_calls(monkeypatch)
    spy = GradientSpy(SCENARIOS[name].field)
    # 5 full steps and a shortened one
    run(replace(make_scenario(name, t_end=0.27), field=spy), config(mover, dt=0.05, gradient_mode=mode))
    assert len(clouds) == 7
    if mover in ("m1", "m2"):
        assert spy.returned == [] and fits == []
        assert all(c.grad_velocities is None and c.grad_velocities_prev is None for c in clouds)
        return
    assert len(spy.returned) == (7 if mode == "analytic" else 0)
    assert fits == ([] if mode == "analytic" else ["build_index", "all_gradients"] * 7)
    assert clouds[0].grad_velocities is not None and clouds[0].grad_velocities_prev is None
    assert all(c.grad_velocities is not None and c.grad_velocities_prev is not None for c in clouds[1:])


def test_lissajous_m2_better_than_m1():
    sc = make_scenario("lissajous")
    e1 = run(sc, config("m1", dt=0.05))[-1].eps_x
    e2 = run(sc, config("m2", dt=0.05))[-1].eps_x
    assert np.isfinite(e2)
    assert e2 < e1


def test_exact_rotation_preserves_pair_distances():
    # oracle: applying the exact flow map to the sampled disc is an isometry
    pts = sample_disc((0.0, 0.0), 1.0, 50)
    theta = 0.9
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ q.T
    d0 = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    d1 = np.sqrt(((moved[:, None] - moved[None]) ** 2).sum(-1))
    assert np.abs(d1 - d0).max() <= 1e-12


def test_determinism_bitwise():
    sc = make_scenario("rotation", t_end=1.0)
    a = run(sc, config("m3", dt=0.05))
    b = run(sc, config("m3", dt=0.05))
    for ra, rb in zip(a, b):
        assert ra.time == rb.time
        assert np.array_equal(ra.centroid, rb.centroid)
        assert ra.diameter == rb.diameter
        assert ra.hull_volume == rb.hull_volume


def test_modulated_rotation_trajectory_ordering():
    # unsteady flow: change-of-streamlines beats the plain second-order
    # scheme, which beats first order, in per-point trajectory error
    sc = make_scenario("modulated-rotation")
    field = sc.field
    errs = {}
    # m3's phase lag cancels over t_end's whole periods; criterion 9 covers it
    for m in ("m1", "m2", "m4"):
        cfg = config(m, dt=0.05)
        cloud = initial_cloud(sc, cfg)
        x0 = cloud.positions.copy()
        for _ in range(200):
            cloud = step(cloud, sc, cfg)
        th = field.angle(10.0)
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        errs[m] = np.linalg.norm(cloud.positions - x0 @ q.T, axis=1).max()
    assert errs["m4"] < errs["m2"] < errs["m1"]


def spy(monkeypatch, name) -> list:
    """The rows of ``v`` in each call of ``movers.<name>`` from here on."""
    rows = []
    original = getattr(movers, name)

    def counted(grad, v, dt, terms, offset=0):
        rows.append(len(v))
        return original(grad, v, dt, terms, offset)

    monkeypatch.setattr(movers, name, counted)
    return rows


def series_calls(monkeypatch) -> list:
    """The rows of ``v`` in each level's series, one ``exp_series_apply`` call each."""
    return spy(monkeypatch, "exp_series_apply")


@pytest.mark.parametrize("t_end, calls", [(1.0, 21), (1.02, 23)], ids=["whole", "short-last"])
def test_m4_series_calls_per_run(monkeypatch, t_end, calls):
    # bootstrap m3: 1 call; first m4 step: 2; every later m4 step: 1, as
    # the old level's series is the last step's new one; the short last
    # step uses another dt, so it computes both
    seen = series_calls(monkeypatch)
    run(make_scenario("modulated-rotation", t_end=t_end), config("m4", dt=0.05))
    assert len(seen) == calls


@pytest.mark.parametrize("mode, kernel_calls", [("analytic", 0), ("numeric", 6 + 8)])
def test_series_rows_per_gradient_mode(monkeypatch, mode, kernel_calls):
    # an analytic run's (2, 2) gradient gets its series matrix from
    # the Jacobian's four floats and never runs the per-row route; a numeric
    # run's full gradient goes row by row, over NumPy columns
    seen, kernel = series_calls(monkeypatch), []
    series = movers._series

    def per_row(g, w, coeffs):
        if isinstance(w[0], np.ndarray):
            kernel.append(len(w[0]))
        return series(g, w, coeffs)

    monkeypatch.setattr(movers, "_series", per_row)
    for mover in ("m3", "m4"):
        run(make_scenario("modulated-rotation", t_end=0.27), config(mover, dt=0.05, gradient_mode=mode))
    # m3: one call a step; m4: 1 + 2 + 1 + 1 + 1 + 2 (bootstrap, first step, short last step)
    assert len(seen) == 6 + 8 and set(seen) == {PAPER_N}
    assert kernel == [PAPER_N] * kernel_calls


def m4_cloud(sc, cfg, steps=3):
    cloud = initial_cloud(sc, cfg)
    for _ in range(steps):
        cloud = step(cloud, sc, cfg)
    assert cloud.series_prev is not None
    return cloud


def test_short_step_series_is_read_only_at_its_dt(monkeypatch):
    # the (dt, terms) tag alone keeps a series from a step of another dt
    sc = make_scenario("modulated-rotation")
    cfg = config("m4", dt=0.05)
    cloud = m4_cloud(sc, cfg)

    def recomputed(c, dt=None):
        return step(replace(c, series_prev=None), sc, cfg, dt)

    calls = series_calls(monkeypatch)
    short = step(cloud, sc, cfg, dt=0.02)
    assert len(calls) == 2
    assert (short.series_prev.dt, short.series_prev.terms) == (0.02, cfg.mover.terms)
    assert np.array_equal(short.positions, recomputed(cloud, 0.02).positions)

    calls.clear()
    again = step(short, sc, cfg, dt=0.02)      # same dt: the series is reused
    assert len(calls) == 1
    assert np.array_equal(again.positions, recomputed(short, 0.02).positions)
    assert np.array_equal(again.series_prev.values, recomputed(short, 0.02).series_prev.values)

    calls.clear()
    full = step(short, sc, cfg)                # regular dt: both series are computed
    assert len(calls) == 2
    assert np.array_equal(full.positions, recomputed(short).positions)


def cloud_arrays(cloud) -> list:
    """Every array a cloud holds: positions, both velocity and gradient levels, the m4 series."""
    levels = [cloud.positions, cloud.velocities, cloud.velocities_prev,
              cloud.grad_velocities, cloud.grad_velocities_prev,
              None if cloud.series_prev is None else cloud.series_prev.values]
    return [a for a in levels if a is not None]


@pytest.mark.parametrize("mode", GRADIENT_MODES)
@pytest.mark.parametrize("mover", movers.MOVER_NAMES)
def test_step_writes_the_move_into_its_own_displacement(mover, mode):
    # the moved positions are formed in the array the mover returned, so no
    # array of the input cloud changes, at the bootstrap, a regular and a
    # shortened step; they are column-major and equal positions + displacement
    sc = make_scenario("modulated-rotation")
    cfg = config(mover, dt=0.05, gradient_mode=mode)
    start = initial_cloud(sc, cfg)
    regular = step(step(start, sc, cfg), sc, cfg)
    assert (regular.series_prev is not None) == (mover == "m4")
    for cloud, dt in [(start, None), (regular, None), (regular, 0.02)]:
        before = [a.copy() for a in cloud_arrays(cloud)]
        disp = movers.displacement(cfg.mover, cloud, dt)[0]
        out = step(cloud, sc, cfg, dt)
        for a, b in zip(cloud_arrays(cloud), before):
            assert np.array_equal(a, b) and not np.shares_memory(out.positions, a)
        assert out.positions.flags.f_contiguous
        assert np.array_equal(out.positions, cloud.positions + disp)


def test_one_cloud_per_step(monkeypatch):
    # the initial cloud, one per step and the clock pin of the shortened last step
    constructed = []
    init = PointCloud.__init__

    def counted(self, *args, **kwargs):
        constructed.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointCloud, "__init__", counted)
    sc = make_scenario("rotation")
    cfg = config("m4", dt=0.05)
    n_full, remainder = plan_steps(sc.t_end, cfg.dt)
    assert (n_full, remainder > 0.0) == (251, True)
    records = run(sc, cfg)
    assert records[-1].step == 252
    assert len(constructed) == 1 + 252 + 1


def test_a_level_without_a_gradient_fails_m3_and_m4_by_name():
    sc = make_scenario("modulated-rotation")
    m2_cloud = step(initial_cloud(sc, config("m2")), sc, config("m2"))
    with pytest.raises(StructuralError, match="m3 reads the current level"):
        step(m2_cloud, sc, config("m3"))
    cfg = config("m4")
    cloud = replace(m4_cloud(sc, cfg), grad_velocities_prev=None)
    step(cloud, sc, cfg)            # the carried series: the previous gradient is not read
    with pytest.raises(StructuralError, match="m4 reads the previous level"):
        step(cloud, sc, cfg, dt=0.02)


def test_term_count_change_recomputes_series():
    sc = make_scenario("modulated-rotation")
    cloud = m4_cloud(sc, RunConfig(mover=MoverKind("m4", 5), dt=0.05))
    cfg7 = RunConfig(mover=MoverKind("m4", 7), dt=0.05)
    fresh = step(replace(cloud, series_prev=None), sc, cfg7)
    assert np.array_equal(step(cloud, sc, cfg7).positions, fresh.positions)


PAPER_DTS = [0.2, 0.1, 0.05, 0.025]


def test_paper_sweep_builds_one_start_hull_and_one_per_cell(monkeypatch):
    # the start record (centroid and volume), shared by every cell, and each cell's final one
    hulls = []
    original = diagnostics.ConvexHull

    def counted(*args, **kwargs):
        hulls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "ConvexHull", counted)
    cells = convergence_sweep(make_scenario("rotation"), config(), PAPER_DTS)
    assert len(cells) == 16
    assert len(hulls) == 1 + 16


def test_a_failed_start_record_fails_every_cell_alike(monkeypatch):
    # the start record is shared only once built: each cell retries it and
    # fails with the same error, as when every cell built its own
    calls = []

    def flat(positions):
        calls.append(1)
        raise DegenerateGeometryError("degenerate point set: flat")

    monkeypatch.setattr(diagnostics, "measure", flat)
    cells = convergence_sweep(make_scenario("rotation"), config(), PAPER_DTS)
    assert len(cells) == len(calls) == 16 and all(c.failed for c in cells)
    assert {c.error for c in cells} == {"DegenerateGeometryError: degenerate point set: flat"}
    assert np.isnan([[c.eps_dia, c.eps_x, c.eps_V] for c in cells]).all()


@pytest.mark.parametrize("t_end, last", [(1.0, 20), (1.02, 21)], ids=["whole", "short-last"])
def test_clouds_stream_the_plan_and_hold_no_earlier_cloud(t_end, last):
    sc, cfg = make_scenario("modulated-rotation", t_end=t_end), config("m4")
    stream = clouds(sc, cfg)
    start = next(stream)
    assert start.step == 0
    np.testing.assert_array_equal(start.positions, initial_cloud(sc, cfg).positions)
    held = weakref.ref(start)
    del start
    steps = []
    for cloud in stream:
        steps.append(cloud.step)
        assert held() is None       # the cloud before, the start included, is dropped
        held = weakref.ref(cloud)
    assert steps == list(range(1, last + 1))
    assert abs(cloud.time - sc.t_end) <= 1e-12      # the shortened step lands on t_end


@pytest.mark.parametrize(
    "name, t_end, dts",
    [("rotation", None, PAPER_DTS), ("modulated-rotation", 1.0, [0.1, 0.05, 0.03])],
    ids=["paper-short-last", "whole-steps"],
)
def test_sweep_cells_are_final_run_records(name, t_end, dts):
    sc = make_scenario(name) if t_end is None else make_scenario(name, t_end=t_end)
    for cell in convergence_sweep(sc, config(), dts):
        final = run(sc, config(cell.mover, cell.dt))[-1]
        assert (cell.eps_dia, cell.eps_x, cell.eps_V) == (final.eps_dia, final.eps_x, final.eps_V)
