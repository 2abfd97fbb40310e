import logging

import numpy as np
import pytest

from lagmove.cloud import make_cloud
from lagmove.errors import StencilDeficiencyError, StructuralError
from lagmove.gfdm import all_gradients, wlsq_gradient
from lagmove.neighbors import build_index


def linear_cloud(positions, A, b, h=0.5):
    positions = np.asarray(positions, dtype=float)
    n, d = positions.shape
    vel = positions @ np.asarray(A, dtype=float).T + np.asarray(b, dtype=float)
    return make_cloud(positions, vel, np.zeros((n, d, d)), smoothing_length=h, dt=0.1)


def random_positions(rng, n=80):
    return rng.uniform(-1.0, 1.0, size=(n, 2))


def test_reproduces_rotation_gradient():
    rng = np.random.default_rng(0)
    cloud = linear_cloud(random_positions(rng), [[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
    index = build_index(cloud, 0.5)
    grad = wlsq_gradient(cloud, index, 0)
    assert np.abs(grad - [[0.0, -1.0], [1.0, 0.0]]).max() <= 1e-10


def test_constant_velocity_gives_zero_gradient():
    rng = np.random.default_rng(1)
    cloud = linear_cloud(random_positions(rng), np.zeros((2, 2)), [3.0, 5.0])
    index = build_index(cloud, 0.5)
    grad = wlsq_gradient(cloud, index, 5)
    assert np.abs(grad).max() <= 1e-10


@pytest.mark.parametrize("trial", range(10))
def test_exact_linear_reproduction(trial):
    rng = np.random.default_rng(100 + trial)
    A = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    cloud = linear_cloud(random_positions(rng), A, b, h=0.7)
    index = build_index(cloud, 0.7)
    grads = all_gradients(cloud, index, zero_fallback=False)
    assert np.abs(grads - A).max() <= 1e-10


def test_translation_invariance():
    rng = np.random.default_rng(7)
    pos = random_positions(rng)
    A, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    base = linear_cloud(pos, A, b)
    # translate positions only; velocity differences are unchanged
    shifted = linear_cloud(pos, A, b)
    from dataclasses import replace

    shifted = replace(shifted, positions=pos + np.array([11.0, -4.0]))
    ga = all_gradients(base, build_index(base, 0.5), zero_fallback=False)
    gb = all_gradients(shifted, build_index(shifted, 0.5), zero_fallback=False)
    assert np.abs(ga - gb).max() <= 1e-12


def test_rotation_equivariance():
    rng = np.random.default_rng(8)
    pos = random_positions(rng)
    theta = 0.61
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    A, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    base = linear_cloud(pos, A, b)
    vel = base.velocities
    rotated = make_cloud(
        pos @ q.T, vel @ q.T, np.zeros((80, 2, 2)), smoothing_length=0.5, dt=0.1
    )
    ga = all_gradients(base, build_index(base, 0.5), zero_fallback=False)
    gb = all_gradients(rotated, build_index(rotated, 0.5), zero_fallback=False)
    assert np.abs(gb - q @ ga @ q.T).max() <= 1e-10


def test_first_order_convergence_on_quadratic_field():
    # v = (x^2, 0): fitted gradient error at the origin shrinks ~ h
    errs = []
    for h in (0.1, 0.05):
        rng = np.random.default_rng(11)
        pos = np.vstack([[0.0, 0.0], rng.uniform(-h, h, size=(40, 2))])
        vel = np.stack([pos[:, 0] ** 2, np.zeros(len(pos))], axis=1)
        cloud = make_cloud(pos, vel, np.zeros((41, 2, 2)), smoothing_length=h, dt=0.1)
        grad = wlsq_gradient(cloud, build_index(cloud, 2 * h), 0)
        errs.append(np.abs(grad - np.zeros((2, 2))).max())
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 1.4  # roughly first order in h


def test_deficient_stencil_raises():
    cloud = linear_cloud([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]], np.eye(2), [0.0, 0.0])
    index = build_index(cloud, 0.5)
    with pytest.raises(StencilDeficiencyError):
        wlsq_gradient(cloud, index, 0)


def test_unknown_row_rejected():
    cloud = linear_cloud([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], np.eye(2), [0.0, 0.0])
    index = build_index(cloud, 0.5)
    for row in (3, 99, -1):
        with pytest.raises(StructuralError):
            wlsq_gradient(cloud, index, row)


def test_zero_fallback_with_warning(caplog):
    cloud = linear_cloud([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]], np.eye(2), [0.0, 0.0])
    index = build_index(cloud, 0.5)
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(cloud, index)
    assert np.array_equal(grads, np.zeros((3, 2, 2)))
    assert any("fallback" in r.message for r in caplog.records)
