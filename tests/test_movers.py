import math

import numpy as np
import pytest

from lagmove.errors import HistoryMissingError, NumericInputError, StructuralError
from lagmove.movers import (
    MoveContext,
    MoverKind,
    displacement,
    exp_series_apply,
    move_m1,
    move_m2,
    move_m3,
    move_m4,
)
from lagmove.validate import phi1_expm


def ctx_of(v_n, v_prev=None, grad_n=None, grad_prev=None, dt=0.1, has_history=True):
    v_n = np.atleast_2d(np.asarray(v_n, dtype=float))
    n, d = v_n.shape
    if v_prev is None:
        v_prev = np.zeros_like(v_n)
    if grad_n is None:
        grad_n = np.zeros((n, d, d))
    if grad_prev is None:
        grad_prev = np.zeros((n, d, d))
    return MoveContext(
        dt,
        v_n,
        np.atleast_2d(np.asarray(v_prev, dtype=float)),
        np.asarray(grad_n, dtype=float).reshape(n, d, d),
        np.asarray(grad_prev, dtype=float).reshape(n, d, d),
        has_history,
    )


def test_m1_direct_product():
    assert np.allclose(move_m1(ctx_of([1.0, 0.0], dt=0.1)), [[0.1, 0.0]])


def test_m1_tangential_drift_grows_radius():
    # boundary point of a rotating disc: moving along the tangent leaves the circle
    disp = move_m1(ctx_of([0.0, 1.0], dt=0.05))
    new = np.array([1.0, 0.0]) + disp[0]
    assert np.allclose(disp, [[0.0, 0.05]])
    assert np.linalg.norm(new) == pytest.approx(np.sqrt(1 + 0.05**2))
    assert np.linalg.norm(new) > 1.0


def test_m1_radius_growth_closed_form():
    # one point on the unit circle, rotation field sampled exactly, m1 movement:
    # each step multiplies the radius by sqrt(1 + (w dt)^2)
    dt, steps = 0.01, 1257
    x = np.array([1.0, 0.0])
    for _ in range(steps):
        v = np.array([-x[1], x[0]])
        x = x + move_m1(ctx_of(v, dt=dt))[0]
    assert np.linalg.norm(x) == pytest.approx((1 + dt**2) ** (steps / 2), rel=1e-12)


def test_m2_substitution():
    got = move_m2(ctx_of([2.0, 0.0], v_prev=[1.0, 0.0], dt=0.1))
    assert np.allclose(got, [[0.25, 0.0]])


def test_m2_equals_m1_for_constant_velocity():
    ctx = ctx_of([1.3, -0.4], v_prev=[1.3, -0.4], dt=0.07)
    assert np.allclose(move_m2(ctx), move_m1(ctx))


def test_m2_requires_history():
    with pytest.raises(HistoryMissingError):
        move_m2(ctx_of([1.0, 0.0], has_history=False))
    with pytest.raises(HistoryMissingError):
        move_m4(ctx_of([1.0, 0.0], has_history=False))


def test_series_zero_matrix_offset0():
    got = exp_series_apply(np.zeros((1, 2, 2)), [[3.0, 4.0]], 0.1, 5, offset=0)
    assert np.allclose(got, [[0.3, 0.4]])


def test_series_zero_matrix_offset1():
    got = exp_series_apply(np.zeros((1, 2, 2)), [[1.0, 0.0]], 0.2, 5, offset=1)
    assert np.allclose(got, [[0.02, 0.0]])


def test_series_rotation_against_high_order():
    a = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    v = np.array([[1.0, 0.0]])
    got = exp_series_apply(a, v, 0.1, 5)
    ref = exp_series_apply(a, v, 0.1, 20)
    # first omitted term is dt^6/6! ~ 1.39e-9 (||A|| = 1, ||v|| = 1)
    assert np.linalg.norm(got - ref) <= 1.5e-9


def test_series_against_matrix_exponential():
    # the infinite series is the phi-1 integral; compare K=20 with expm of
    # the augmented matrix (scaling-and-squaring oracle)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        v = rng.normal(size=2)
        dt = rng.uniform(0.01, 0.2)
        got = exp_series_apply(a[None], v[None], dt, 20)[0]
        ref = phi1_expm(a, v, dt)
        assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_series_term_count_difference_is_last_term():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(1, 2, 2))
        v = rng.normal(size=(1, 2))
        dt = 0.15
        k = rng.integers(1, 8)
        diff = exp_series_apply(a, v, dt, k + 1) - exp_series_apply(a, v, dt, k)
        w = v[0]
        for _ in range(k):
            w = a[0] @ w
        term = w * dt ** (k + 1) / math.factorial(k + 1)
        assert np.allclose(diff[0], term, rtol=1e-12, atol=1e-15)


def test_series_rejects_bad_args():
    with pytest.raises(StructuralError):
        exp_series_apply(np.zeros((1, 2, 2)), np.zeros((1, 2)), 0.1, 0)
    with pytest.raises(StructuralError):
        exp_series_apply(np.zeros((1, 2, 2)), np.zeros((1, 2)), 0.1, 5, offset=2)


@pytest.mark.parametrize(
    "grad_shape, v_shape", [((4, 3, 3), (4, 2)), ((4, 2, 2), (3, 2))], ids=["dim", "rows"]
)
def test_series_rejects_mismatched_shapes(grad_shape, v_shape):
    with pytest.raises(StructuralError):
        exp_series_apply(np.zeros(grad_shape), np.zeros(v_shape), 0.1, 5)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
def test_series_rejects_non_finite_dt(dt):
    with pytest.raises(NumericInputError):
        exp_series_apply(np.zeros((1, 2, 2)), np.ones((1, 2)), dt, 5)


def einsum_series(a, v, dt, terms, offset):
    # the batched mat-vec reference, with the kernel's order of accumulation
    out, w = dt ** (offset + 1) / math.factorial(offset + 1) * v, v
    for p in range(offset + 2, offset + terms + 1):
        w = np.einsum("...ij,...j->...i", a, w)
        out = out + dt**p / math.factorial(p) * w
    return out


@pytest.mark.parametrize("d", [2])
def test_series_matches_einsum_reference(d):
    # two products per component sum to the same bits in either order
    rng = np.random.default_rng(5)
    for terms in range(1, 9):
        for offset in (0, 1):
            a = rng.normal(size=(40, d, d))
            v = rng.normal(size=(40, d))
            dt = rng.uniform(0.01, 0.3)
            got = exp_series_apply(a, v, dt, terms, offset)
            ref = einsum_series(a, v, dt, terms, offset)
            assert np.array_equal(got, ref)


def test_m4_cached_series_matches_recomputation():
    rng = np.random.default_rng(6)
    dt = 0.07
    v_prev, g_prev = rng.normal(size=(6, 2)), rng.normal(size=(6, 2, 2))
    series = None
    for _ in range(10):
        v, g = rng.normal(size=(6, 2)), rng.normal(size=(6, 2, 2))
        disp, series = move_m4(MoveContext(dt, v, v_prev, g, g_prev, True, series_prev=series))
        assert np.array_equal(disp, move_m4(MoveContext(dt, v, v_prev, g, g_prev, True))[0])
        v_prev, g_prev = v, g
    with pytest.raises(StructuralError):
        MoveContext(dt, v[:3], v_prev[:3], g[:3], g_prev[:3], True, series_prev=series)


def level(n=3):
    return np.ones((n, 2)), np.zeros((n, 2, 2))


@pytest.mark.parametrize(
    "steps, error",
    [((np.nan, None), NumericInputError), ((np.inf, None), NumericInputError),
     ((0.1, np.nan), NumericInputError), ((0.1, np.inf), NumericInputError),
     ((0.1, 0.0), StructuralError), ((0.1, -0.1), StructuralError)],
    ids=["dt-nan", "dt-inf", "dt_history-nan", "dt_history-inf", "dt_history-zero",
         "dt_history-negative"],
)
def test_context_rejects_bad_time_steps(steps, error):
    v, g = level()
    dt, dt_history = steps
    with pytest.raises(error):
        MoveContext(dt, v, v, g, g, True, dt_history=dt_history)


def test_context_dt_history_none_means_dt():
    v, g = level()
    assert MoveContext(0.1, v, v, g, g, True, dt_history=None).dt_history == 0.1
    assert MoveContext(0.1, v, v, g, g, True, dt_history=0.2).dt_history == 0.2


@pytest.mark.parametrize(
    "name, shape",
    [("v_prev", (1, 2)), ("v_prev", (3, 2, 2)), ("grad_prev", (1, 2, 2)), ("grad_prev", (3, 2))],
    ids=["v_prev-rows", "v_prev-ndim", "grad_prev-rows", "grad_prev-ndim"],
)
def test_context_rejects_misshapen_previous_level(name, shape):
    v, g = level()
    args = {"v_n": v, "v_prev": v, "grad_n": g, "grad_prev": g, name: np.zeros(shape)}
    with pytest.raises(StructuralError):
        MoveContext(0.1, **args, has_history=True)


def test_m3_single_step_rotation_accuracy():
    a = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    v = np.array([[0.0, 1.0]])  # field at (1, 0)
    disp = move_m3(ctx_of([0.0, 1.0], grad_n=a, dt=0.1), terms=5)[0]
    exact = np.array([np.cos(0.1) - 1.0, np.sin(0.1)])
    assert np.abs(disp - exact).max() <= 2e-7


def test_reduction_m3_to_m1_without_gradient():
    rng = np.random.default_rng(2)
    for _ in range(30):
        ctx = ctx_of(rng.normal(size=(5, 2)), dt=rng.uniform(0.01, 0.3))
        m3, m1 = move_m3(ctx), move_m1(ctx)
        assert np.abs(m3 - m1).max() <= 1e-15 * max(1.0, np.abs(m1).max())


def test_reduction_m4_to_m2_without_gradients():
    rng = np.random.default_rng(3)
    for _ in range(30):
        ctx = ctx_of(
            rng.normal(size=(5, 2)), v_prev=rng.normal(size=(5, 2)), dt=rng.uniform(0.01, 0.3)
        )
        m4, m2 = move_m4(ctx)[0], move_m2(ctx)
        assert np.abs(m4 - m2).max() <= 1e-15 * max(1.0, np.abs(m2).max())


def test_m4_steady_zero_gradient_matches_m3():
    # with A = 0 and steady velocity, m4 collapses to the m3 (= m1) value
    ctx = ctx_of([1.0, 2.0], v_prev=[1.0, 2.0], dt=0.1)
    assert np.allclose(move_m4(ctx)[0], move_m3(ctx))


def test_zero_velocity_fixed_point():
    ctx = ctx_of(
        [0.0, 0.0],
        v_prev=[0.0, 0.0],
        grad_n=np.array([[[0.3, 0.1], [0.2, -0.3]]]),
        grad_prev=np.array([[[0.1, 0.0], [0.0, -0.1]]]),
    )
    for kind in ("m1", "m2", "m3", "m4"):
        assert np.array_equal(displacement(MoverKind(kind), ctx)[0], np.zeros((1, 2)))


def test_mover_kind_validation_and_bootstrap():
    with pytest.raises(StructuralError):
        MoverKind("m9")
    assert MoverKind("m2").bootstrap.name == "m1"
    assert MoverKind("m4", 7).bootstrap == MoverKind("m3", 7)
    assert MoverKind("m1").bootstrap.name == "m1"
