import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from lagmove.cloud import LevelSeries, PointCloud, advance_history, make_cloud
from lagmove.errors import NumericInputError, StructuralError


def small_cloud(n=3, d=2):
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(n, d))
    vel = rng.normal(size=(n, d))
    grad = rng.normal(size=(n, d, d))
    return make_cloud(pos, vel, grad, dt=0.1)


def test_advance_shifts_history():
    cloud = make_cloud([[0.0, 0.0]], [[1.0, 0.0]], np.zeros((1, 2, 2)), dt=0.1)
    out = advance_history(cloud, cloud.positions, [[2.0, 0.0]], np.zeros((1, 2, 2)))
    assert np.array_equal(out.velocities_prev, [[1.0, 0.0]])
    assert np.array_equal(out.velocities, [[2.0, 0.0]])
    assert out.step == cloud.step + 1


def test_step_0_cloud_holds_one_level_and_allocates_nothing():
    # no previous level exists before the first step, so none is allocated: a
    # zero velocity level would cost 16 bytes a point; nothing given is copied
    n = 100_000
    pos, vel = np.zeros((n, 2)), np.ones((n, 2))
    g = np.eye(2)   # an analytic level: one (2, 2) matrix for every point
    tracemalloc.start()
    try:
        cloud = make_cloud(pos, vel, g, dt=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert cloud.positions is pos and cloud.velocities is vel and cloud.grad_velocities is g
    assert cloud.velocities_prev is None and cloud.grad_velocities_prev is None
    assert not cloud.has_history


def test_advance_sets_history_flag():
    cloud = small_cloud()
    assert not cloud.has_history
    out = advance_history(cloud, cloud.positions, cloud.velocities, cloud.grad_velocities)
    assert out.has_history
    # monotone: stays true
    out2 = advance_history(out, out.positions, out.velocities, out.grad_velocities)
    assert out2.has_history


def test_advance_carries_every_field():
    # a pinned clock (as after a shortened step), a nonzero step and a series: every
    # field distinct, so a field filled from the wrong source shows. The cloud is
    # filled through its __dict__, not the generated __init__, so it is also held
    # to a constructed one as a frozen dataclass
    rng = np.random.default_rng(1)
    cloud = replace(
        small_cloud(), initial_time=0.37, step=4,
        series_prev=LevelSeries(np.zeros((3, 2)), 0.1, 5),
    )
    new = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2, 2))
    series = LevelSeries(rng.normal(size=(3, 2)), 0.1, 5)
    out = advance_history(cloud, *new, series)
    expected = replace(
        cloud, positions=new[0], velocities=new[1], velocities_prev=cloud.velocities,
        grad_velocities=new[2], grad_velocities_prev=cloud.grad_velocities,
        series_prev=series, step=cloud.step + 1,
    )
    for field in fields(PointCloud):
        got, want = getattr(out, field.name), getattr(expected, field.name)
        if isinstance(want, (np.ndarray, LevelSeries)):
            assert got is want, field.name
        else:
            assert type(got) is type(want) and got == want, field.name
    assert type(out) is PointCloud and set(vars(out)) == {f.name for f in fields(PointCloud)}
    assert out == expected and repr(out) == repr(expected)
    for field in fields(PointCloud):
        with pytest.raises(FrozenInstanceError):
            setattr(out, field.name, getattr(out, field.name))
    assert replace(out, step=9).step == 9 and weakref.ref(out)() is out


def test_advance_rejects_series_of_another_size():
    cloud = small_cloud()
    series = LevelSeries(np.zeros((2, 2)), cloud.dt, 5)
    with pytest.raises(StructuralError):
        advance_history(cloud, cloud.positions, cloud.velocities, cloud.grad_velocities, series)
    kept = LevelSeries(np.zeros((3, 2)), cloud.dt, 5)
    assert advance_history(cloud, cloud.positions, cloud.velocities, cloud.grad_velocities, kept).series_prev is kept


def test_time_is_recomputed_from_step():
    cloud = small_cloud()
    for _ in range(1000):
        cloud = advance_history(cloud, cloud.positions, cloud.velocities, cloud.grad_velocities)
    assert cloud.time == 1000 * 0.1


def test_advance_installs_positions():
    cloud = make_cloud([[1.0, 2.0]], [[0.0, 0.0]], np.zeros((1, 2, 2)), dt=0.1)
    out = advance_history(cloud, [[1.1, 1.9]], cloud.velocities, cloud.grad_velocities)
    assert np.array_equal(out.positions, [[1.1, 1.9]])
    assert np.array_equal(cloud.positions, [[1.0, 2.0]])


def test_zero_displacement_is_identity():
    cloud = small_cloud()
    out = advance_history(
        cloud, cloud.positions + np.zeros_like(cloud.positions), cloud.velocities, cloud.grad_velocities
    )
    assert np.array_equal(out.positions, cloud.positions)


def test_ids_and_order_preserved():
    # a point's id is its row: each new position and velocity lands on its own row
    cloud = small_cloud(n=222)
    disp = np.arange(444.0).reshape(222, 2)
    out = advance_history(cloud, cloud.positions + disp, cloud.velocities + disp, cloud.grad_velocities)
    assert np.array_equal(out.positions, cloud.positions + disp)
    assert np.array_equal(out.velocities, cloud.velocities + disp)
    assert np.array_equal(out.velocities_prev, cloud.velocities)


def test_length_mismatch_rejected():
    cloud = small_cloud()
    with pytest.raises(StructuralError):
        advance_history(cloud, np.zeros((2, 2)), cloud.velocities, cloud.grad_velocities)
    with pytest.raises(StructuralError):
        advance_history(cloud, cloud.positions, np.zeros((5, 2)), np.zeros((5, 2, 2)))


@pytest.mark.parametrize(
    "shape", [(3,), (3, 2, 2), (3, 3)], ids=["1d", "gradient-shaped", "three-columns"]
)
def test_advance_rejects_misshapen_positions(shape):
    cloud = small_cloud()
    with pytest.raises(StructuralError):
        advance_history(cloud, np.zeros(shape), cloud.velocities, cloud.grad_velocities)


def test_non_finite_rejected():
    cloud = small_cloud()
    for value in (np.nan, np.inf, -np.inf):
        bad = cloud.positions.copy()
        bad[0, 0] = value
        with pytest.raises(NumericInputError):
            advance_history(cloud, bad, cloud.velocities, cloud.grad_velocities)


@pytest.mark.parametrize("field", ["positions", "velocities", "grad_velocities"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_make_cloud_rejects_non_finite(field, value):
    arrays = {
        "positions": np.zeros((3, 2)),
        "velocities": np.zeros((3, 2)),
        "grad_velocities": np.zeros((3, 2, 2)),
    }
    arrays[field][1, 0] = value
    with pytest.raises(NumericInputError):
        make_cloud(**arrays, dt=0.1)


def test_a_level_may_hold_no_gradient():
    # m1 and m2 read no gradient, so their runs install None at both levels
    cloud = make_cloud(np.zeros((3, 2)), np.ones((3, 2)), None, dt=0.1)
    assert cloud.grad_velocities is None and cloud.grad_velocities_prev is None
    out = advance_history(cloud, cloud.positions, cloud.velocities, None)
    assert out.has_history and out.grad_velocities is None and out.grad_velocities_prev is None


@pytest.mark.parametrize(
    "grad, error",
    [(np.zeros((3, 2)), StructuralError), (np.zeros((2, 2, 2)), StructuralError),
     (np.zeros((3, 2, 3)), StructuralError), (np.full((3, 2, 2), np.nan), NumericInputError),
     (np.full((3, 2, 2), np.inf), NumericInputError)],
    ids=["vector-shaped", "too-few-rows", "three-columns", "nan", "inf"],
)
@pytest.mark.parametrize("held", [True, False], ids=["held", "none-held"])
def test_a_given_gradient_is_still_checked(grad, error, held):
    # None is a level without a gradient; any array given is checked as ever
    with pytest.raises(error):
        make_cloud(np.zeros((3, 2)), np.zeros((3, 2)), grad, dt=0.1)
    cloud = make_cloud(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)) if held else None, dt=0.1)
    with pytest.raises(error):
        advance_history(cloud, cloud.positions, cloud.velocities, grad)


@pytest.mark.parametrize("field", ["dt"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_make_cloud_rejects_non_finite_scalars(field, value):
    with pytest.raises(NumericInputError):
        make_cloud(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)), **{field: value})


def test_make_cloud_rejects_1d_positions():
    with pytest.raises(StructuralError):
        make_cloud(np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2, 2)), dt=0.1)


def test_per_point_locality_commutes_with_permutation():
    rng = np.random.default_rng(1)
    # advanced once, so the previous levels that are permuted exist
    start = small_cloud(n=10)
    cloud = advance_history(start, start.positions, rng.normal(size=(10, 2)), rng.normal(size=(10, 2, 2)))
    disp = rng.normal(size=(10, 2))
    newv = rng.normal(size=(10, 2))
    newg = rng.normal(size=(10, 2, 2))
    perm = rng.permutation(10)

    direct = advance_history(cloud, cloud.positions + disp, newv, newg)

    permuted = replace(
        cloud,
        positions=cloud.positions[perm],
        velocities=cloud.velocities[perm],
        velocities_prev=cloud.velocities_prev[perm],
        grad_velocities=cloud.grad_velocities[perm],
        grad_velocities_prev=cloud.grad_velocities_prev[perm],
    )
    via_perm = advance_history(permuted, permuted.positions + disp[perm], newv[perm], newg[perm])
    assert np.array_equal(via_perm.positions, direct.positions[perm])
    assert np.array_equal(via_perm.velocities, direct.velocities[perm])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "where, named",
    [("positions", "new_positions"), ("velocities", "new_velocities"), ("both", "new_positions")],
)
@pytest.mark.parametrize("orders", ["CC", "FC", "CF"])
def test_one_joint_finite_pass_names_the_array_at_fault(value, where, named, orders):
    # one pass over both arrays; the scans that name one run only when it fails,
    # positions first as ever. The pairing of entries across layouts does not matter.
    cloud = small_cloud(n=5)
    positions = np.asarray(cloud.positions + 1.0, order=orders[0])
    velocities = np.asarray(cloud.velocities, order=orders[1])
    if where in ("positions", "both"):
        positions[1, 0] = value
    if where in ("velocities", "both"):
        velocities[3, 1] = value
    with pytest.raises(NumericInputError, match=f"^{named} contains non-finite entries$"):
        advance_history(cloud, positions, velocities, cloud.grad_velocities)


def test_finite_rows_whose_products_overflow_pass():
    # each x_i v_i overflows a double, with both signs; whatever the sum
    # reads, the two scans then find every entry finite
    cloud = small_cloud()
    positions, velocities = np.full((3, 2), 1e200), np.full((3, 2), 1e200)
    positions[1] *= -1.0
    out = advance_history(cloud, positions, velocities, cloud.grad_velocities)
    assert out.positions is positions and out.velocities is velocities
