import numpy as np
import pytest

from lagmove.cloud import advance_history, apply_displacements, make_cloud
from lagmove.errors import NumericInputError, StructuralError


def small_cloud(n=3, d=2):
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(n, d))
    vel = rng.normal(size=(n, d))
    grad = rng.normal(size=(n, d, d))
    return make_cloud(pos, vel, grad, smoothing_length=0.5, dt=0.1)


def test_advance_shifts_history():
    cloud = make_cloud(
        [[0.0, 0.0]], [[1.0, 0.0]], np.zeros((1, 2, 2)), smoothing_length=1.0, dt=0.1
    )
    out = advance_history(cloud, [[2.0, 0.0]], np.zeros((1, 2, 2)))
    assert np.array_equal(out.velocities_prev, [[1.0, 0.0]])
    assert np.array_equal(out.velocities, [[2.0, 0.0]])
    assert out.step == cloud.step + 1


def test_advance_sets_history_flag():
    cloud = small_cloud()
    assert not cloud.has_history
    out = advance_history(cloud, cloud.velocities, cloud.grad_velocities)
    assert out.has_history
    # monotone: stays true
    out2 = advance_history(out, out.velocities, out.grad_velocities)
    assert out2.has_history


def test_time_is_recomputed_from_step():
    cloud = small_cloud()
    for _ in range(1000):
        cloud = advance_history(cloud, cloud.velocities, cloud.grad_velocities)
    assert cloud.time == 1000 * 0.1


def test_apply_displacements_values():
    cloud = make_cloud(
        [[1.0, 2.0]], [[0.0, 0.0]], np.zeros((1, 2, 2)), smoothing_length=1.0, dt=0.1
    )
    out = apply_displacements(cloud, [[0.1, -0.1]])
    assert np.allclose(out.positions, [[1.1, 1.9]])


def test_zero_displacement_is_identity():
    cloud = small_cloud()
    out = apply_displacements(cloud, np.zeros_like(cloud.positions))
    assert np.array_equal(out.positions, cloud.positions)


def test_ids_and_order_preserved():
    # a point's id is its row: each displacement lands on its own row
    cloud = small_cloud(n=222)
    disp = np.arange(444.0).reshape(222, 2)
    out = apply_displacements(cloud, disp)
    assert np.array_equal(out.positions, cloud.positions + disp)
    assert np.array_equal(out.velocities, cloud.velocities)


def test_length_mismatch_rejected():
    cloud = small_cloud()
    with pytest.raises(StructuralError):
        apply_displacements(cloud, np.zeros((2, 2)))
    with pytest.raises(StructuralError):
        advance_history(cloud, np.zeros((5, 2)), np.zeros((5, 2, 2)))


def test_non_finite_rejected():
    cloud = small_cloud()
    bad = np.zeros_like(cloud.positions)
    bad[0, 0] = np.nan
    with pytest.raises(NumericInputError):
        apply_displacements(cloud, bad)


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
        make_cloud(**arrays, smoothing_length=0.5, dt=0.1)


@pytest.mark.parametrize("field", ["smoothing_length", "dt"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_make_cloud_rejects_non_finite_scalars(field, value):
    scalars = {"smoothing_length": 0.5, "dt": 0.1, field: value}
    with pytest.raises(NumericInputError):
        make_cloud(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)), **scalars)


def test_make_cloud_rejects_1d_positions():
    with pytest.raises(StructuralError):
        make_cloud(np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2, 2)), smoothing_length=0.5, dt=0.1)


def test_per_point_locality_commutes_with_permutation():
    rng = np.random.default_rng(1)
    cloud = small_cloud(n=10)
    disp = rng.normal(size=(10, 2))
    newv = rng.normal(size=(10, 2))
    newg = rng.normal(size=(10, 2, 2))
    perm = rng.permutation(10)

    direct = apply_displacements(advance_history(cloud, newv, newg), disp)

    from dataclasses import replace

    permuted = replace(
        cloud,
        positions=cloud.positions[perm],
        velocities=cloud.velocities[perm],
        velocities_prev=cloud.velocities_prev[perm],
        grad_velocities=cloud.grad_velocities[perm],
        grad_velocities_prev=cloud.grad_velocities_prev[perm],
    )
    via_perm = apply_displacements(advance_history(permuted, newv[perm], newg[perm]), disp[perm])
    assert np.array_equal(via_perm.positions, direct.positions[perm])
    assert np.array_equal(via_perm.velocities, direct.velocities[perm])
