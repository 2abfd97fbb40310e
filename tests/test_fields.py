import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lagmove.errors import DimensionError, StructuralError
from lagmove.fields import (
    LinearField,
    Lissajous,
    ModulatedRotation,
    RigidRotation,
    exact_lissajous_center,
)
from lagmove.movers import MoverKind
from lagmove.scenarios import RunConfig, make_scenario, plan_steps
from lagmove.validate import FD_GRADIENT_BOUND, FIELDS, fd_gradient_error, position_history


def lissajous_velocity(t):
    return Lissajous().evaluate(np.zeros((1, 2)), t)[0]


def test_rotation_values():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    v = RigidRotation(center=(0.0, 0.0), omega=1.0).evaluate(x, 0.0)
    assert np.allclose(v, [[0.0, 1.0], [0.0, 0.0], [-2.0, 0.0]])


def test_rotation_rejects_3d():
    with pytest.raises(DimensionError):
        RigidRotation().evaluate(np.zeros((4, 3)), 0.0)


@pytest.mark.parametrize(
    "A, b",
    [(np.eye(3), (0.0, 0.0)), (np.eye(2), (0.0, 0.0, 0.0)), (((1.0, 2.0), (3.0,)), (0.0, 0.0))],
    ids=["3x3-A", "3-vector-b", "ragged-A"],
)
def test_linear_field_rejects_non_2d_coefficients(A, b):
    with pytest.raises(DimensionError):
        LinearField(A=A, b=b)


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
    assert g.shape == (2, 2) and np.array_equal(g, np.zeros((2, 2)))


def test_lissajous_exact_center_endpoints():
    start = exact_lissajous_center(0.0)      # (+0, +0): the row's centroid offset from 0
    assert np.array_equal(start, [0.0, 0.0]) and not np.signbit(start).any()
    assert np.allclose(exact_lissajous_center(2 * np.pi), [0.0, 0.0], atol=1e-13)


def test_lissajous_center_derivative_matches_velocity():
    # central difference of the closed-form trajectory is the field itself
    eps = 1e-6
    for t in np.linspace(0.1, 3.0, 17):
        deriv = (exact_lissajous_center(t + eps) - exact_lissajous_center(t - eps)) / (2 * eps)
        assert np.allclose(deriv, lissajous_velocity(t), atol=1e-9 * 20)


def test_gradient_closed_forms():
    rot = RigidRotation(omega=1.0)
    assert np.array_equal(rot.gradient(np.zeros((1, 2)), 0.0), [[0.0, -1.0], [1.0, 0.0]])
    lin = LinearField(A=((1.0, 2.0), (3.0, 4.0)), b=(0.0, 0.0))
    assert np.array_equal(lin.gradient(np.ones((5, 2)), 0.0), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_gradient_matches_finite_differences(field):
    # one field of validate's field-gradients check
    assert fd_gradient_error(field) <= FD_GRADIENT_BOUND


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


def test_unmodulated_rotation_angle_is_the_limit():
    # at modulation_freq 0 the angle is its w -> 0 limit, omega0 t, with no
    # 0 / 0; small frequencies approach it by about omega0 pi f t^2 / 2
    f = ModulatedRotation(omega0=1.3, modulation_freq=0.0)
    t = np.array([0.0, 0.7, 2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.rate(2.5) == 1.3
        assert f.angle(2.5) == 1.3 * 2.5
        assert np.array_equal(f.angle(t), 1.3 * t)
    for freq in (1e-3, 1e-6):
        near = ModulatedRotation(omega0=1.3, modulation_freq=freq).angle(t)
        assert np.all(np.abs(near - 1.3 * t) <= 1.3 * np.pi * freq * t**2)



@pytest.mark.parametrize("freq", [1e-9, 1e-6, 1e-3, 0.5])
def test_modulated_rotation_angle_is_within_an_ulp_of_a_40_digit_reference(freq):
    # 0.5 (1 - cos(w t)) / w cancels for small w t: at freq 1e-9 it is off
    # by up to some 1e-9; sin(w t / 2)^2 / w keeps the angle to rounding
    mpmath = pytest.importorskip("mpmath")
    f = ModulatedRotation(omega0=1.3, modulation_freq=freq)
    for t in (0.3, 1.7, 2.5, 4.2, 10.0):
        angle = f.angle(t)
        with mpmath.workdps(40):
            w = 2 * mpmath.pi * mpmath.mpf(freq)
            exact = mpmath.mpf(1.3) * (t + (1 - mpmath.cos(w * t)) / (2 * w))
            error = float(abs(mpmath.mpf(angle) - exact))
        assert error <= np.spacing(angle)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("kind", [RigidRotation, ModulatedRotation])
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.7)])
@pytest.mark.parametrize("w", [1.0, -2.5])
def test_rotations_equal_the_matmul_formulas(kind, center, w):
    field = kind(center, w)
    rng = np.random.default_rng(11)
    for t in (0.0, 0.3, 1.7, 4.2):
        x = rng.uniform(-2.0, 2.0, size=(64, 2))
        rate = field.rate(t) if isinstance(field, ModulatedRotation) else field.omega
        rel = x - np.asarray(field.center)
        assert np.array_equal(field.evaluate(x, t), rate * rel @ ROT90.T)
        assert np.array_equal(field.gradient(x, t), rate * ROT90)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_results_are_fresh_arrays(field):
    x = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 2))
    first = field.evaluate(x, 0.4)
    expected = first.copy()
    assert first.flags.writeable and first.flags.c_contiguous
    first += 1.0
    assert np.array_equal(field.evaluate(x, 0.4), expected)
    # the gradient is one fresh (2, 2) matrix, the same at every row
    first = field.gradient(x, 0.4)
    assert first.shape == (2, 2) and first.dtype == float and first.flags.writeable
    assert np.array_equal(first, field.jacobian(0.4))
    assert not np.shares_memory(first, field.gradient(x, 0.4))


@pytest.mark.parametrize("n", [1, 7, 2_000])
@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_every_field_keeps_its_input_layout(field, n):
    # a run's positions are column-major; a field's velocities must stay so
    rng = np.random.default_rng(n)
    for x in (rng.uniform(-2.0, 2.0, size=(n, 2)), rng.integers(-3, 4, size=(n, 2))):
        c_out = field.evaluate(x, 0.7)
        f_out = field.evaluate(np.asfortranarray(x), 0.7)
        assert c_out.dtype == f_out.dtype == float
        if n > 1:   # a single row is both layouts at once
            assert c_out.flags.c_contiguous and not c_out.flags.f_contiguous
            assert f_out.flags.f_contiguous and not f_out.flags.c_contiguous
        assert np.array_equal(c_out, f_out)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_jacobian_is_fresh_and_every_row_of_the_gradient(field):
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(6, 2))
    for t in (0.0, 0.4, 3.1):
        first = field.jacobian(t)
        assert first.shape == (2, 2) and first.dtype == float
        expected = first.copy()
        first += 1.0
        assert np.array_equal(field.jacobian(t), expected)
        assert np.array_equal(field.gradient(x, t), expected)


FLOW_TIMES = (0.3, 1.1, 2.6)


def integrated_flow(field, x0, times):
    """Positions at ``times`` of the points at ``x0`` at t = 0, from DOP853
    over all 2N coordinates (rtol 1e-12, atol 1e-14)."""
    sol = solve_ivp(
        lambda t, y: field.evaluate(y.reshape(-1, 2), t).ravel(), (0.0, times[-1]), x0.ravel(),
        method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14,
    )
    assert sol.success
    return sol.y.T.reshape(len(times), -1, 2)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_flow_matches_an_integrated_trajectory(field):
    x0 = np.random.default_rng(12).uniform(-1.0, 1.0, size=(5, 2))
    for t, want in zip(FLOW_TIMES, integrated_flow(field, x0, FLOW_TIMES)):
        got = field.flow(x0, t)
        assert got.shape == x0.shape
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max()), t


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_flow_at_zero_is_the_start(field):
    x0 = np.random.default_rng(13).uniform(-1.0, 1.0, size=(5, 2))
    assert np.array_equal(field.flow(x0, 0.0), x0)


def test_m3_with_20_terms_follows_the_linear_flow_at_every_step():
    # on an autonomous affine field, m3 is exponential Euler, exact up to its
    # series tail, which K = 20 leaves below rounding
    sc = make_scenario("linear-field")
    cfg = RunConfig(mover=MoverKind("m3", 20), dt=0.05)
    hist = position_history(sc, cfg)
    n_full, remainder = plan_steps(sc.t_end, cfg.dt)
    assert remainder == 0.0 and len(hist) == n_full + 1
    for n, x in enumerate(hist):
        assert np.abs(x - sc.field.flow(hist[0], n * cfg.dt)).max() <= 1e-12, n
