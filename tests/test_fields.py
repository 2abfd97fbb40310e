import numpy as np
import pytest

from lagmove.errors import DimensionError, StructuralError
from lagmove.fields import (
    LinearField,
    Lissajous,
    ModulatedRotation,
    RigidRotation,
    exact_lissajous_center,
)
from lagmove.validate import fd_jacobian

ALL_FIELDS = [
    RigidRotation(center=(0.0, 0.0), omega=1.0),
    RigidRotation(center=(0.3, -0.7), omega=-2.5),
    Lissajous(),
    LinearField(A=((1.0, 2.0), (3.0, 4.0)), b=(0.0, 0.0)),
    ModulatedRotation(center=(0.1, 0.2), omega0=1.0, modulation_freq=0.5),
]


def lissajous_velocity(t):
    return Lissajous().evaluate(np.zeros((1, 2)), t)[0]


def test_rotation_values():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    v = RigidRotation(center=(0.0, 0.0), omega=1.0).evaluate(x, 0.0)
    assert np.allclose(v, [[0.0, 1.0], [0.0, 0.0], [-2.0, 0.0]])


def test_rotation_rejects_3d():
    with pytest.raises(DimensionError):
        RigidRotation().evaluate(np.zeros((4, 3)), 0.0)


LINEAR = LinearField(A=((1.0, 2.0), (3.0, 4.0)), b=(0.0, 0.0))


def test_linear_evaluate_rejects_1d_x():
    with pytest.raises(StructuralError):
        LINEAR.evaluate(np.array([1.0, 2.0]), 0.0)


def test_linear_gradient_rejects_1d_x():
    with pytest.raises(StructuralError):
        LINEAR.gradient(np.array([1.0, 2.0]), 0.0)


def test_linear_rejects_3d():
    with pytest.raises(DimensionError):
        LINEAR.evaluate(np.zeros((4, 3)), 0.0)
    with pytest.raises(DimensionError):
        LINEAR.gradient(np.zeros((4, 3)), 0.0)


def test_lissajous_values():
    assert np.allclose(lissajous_velocity(0.0), [0.0, 4.0], atol=1e-14)
    assert np.allclose(
        lissajous_velocity(np.pi / 2),
        [15.0 * np.cos(3 * np.pi), 4.0 * np.cos(2 * np.pi)],
        atol=1e-13,
    )


def test_lissajous_gradient_is_zero():
    g = Lissajous().gradient(np.random.default_rng(0).normal(size=(7, 2)), 1.3)
    assert np.array_equal(g, np.zeros((7, 2, 2)))


def test_lissajous_exact_center_endpoints():
    assert np.allclose(exact_lissajous_center(0.0), [0.0, 0.0], atol=1e-15)
    assert np.allclose(exact_lissajous_center(2 * np.pi), [0.0, 0.0], atol=1e-13)


def test_lissajous_center_derivative_matches_velocity():
    # central difference of the closed-form trajectory is the field itself
    eps = 1e-6
    for t in np.linspace(0.1, 3.0, 17):
        deriv = (exact_lissajous_center(t + eps) - exact_lissajous_center(t - eps)) / (2 * eps)
        assert np.allclose(deriv, lissajous_velocity(t), atol=1e-9 * 20)


def test_gradient_closed_forms():
    rot = RigidRotation(omega=1.0)
    assert np.allclose(rot.gradient(np.zeros((1, 2)), 0.0)[0], [[0.0, -1.0], [1.0, 0.0]])
    lin = LinearField(A=((1.0, 2.0), (3.0, 4.0)), b=(0.0, 0.0))
    assert np.allclose(lin.gradient(np.ones((1, 2)), 0.0)[0], [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_gradient_matches_finite_differences(field):
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=2)
        t = rng.uniform(0.0, 10.0)
        exact = field.gradient(x[None], t)[0]
        approx = fd_jacobian(field, x, t)
        assert np.abs(exact - approx).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_rotation_preserves_radius_along_exact_flow():
    # the exact flow of the rotation field is a rotation matrix
    theta = 0.73
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x = np.array([0.4, -0.9])
    assert np.isclose(np.linalg.norm(rot @ x), np.linalg.norm(x))


def test_modulated_rotation_rate_and_angle():
    f = ModulatedRotation(omega0=1.0, modulation_freq=0.5)
    assert np.isclose(f.rate(0.0), 1.0)
    assert np.isclose(f.rate(0.5), 1.5)  # sin peak of the modulation
    # angle is the antiderivative of the rate
    eps = 1e-6
    for t in (0.3, 1.7, 4.2):
        deriv = (f.angle(t + eps) - f.angle(t - eps)) / (2 * eps)
        assert np.isclose(deriv, f.rate(t), atol=1e-8)
