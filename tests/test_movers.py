import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lagmove import movers
from lagmove.cloud import LevelSeries, advance_history, make_cloud
from lagmove.errors import HistoryMissingError, NumericInputError, StructuralError
from lagmove.movers import (
    DEFAULT_TERMS,
    MOVER_NAMES,
    MoverKind,
    _series_coefficients,
    _series_matrix_t,
    displacement,
    exp_series_apply,
    move_m1,
    move_m2,
    move_m3,
    move_m4,
)
from lagmove.scenarios import SCENARIOS, RunConfig, make_scenario, run
from lagmove.validate import FIELDS, phi1_expm


def cloud_of(v_n, v_prev=None, grad_n=None, grad_prev=None, dt=0.1, has_history=True):
    """A cloud at the origin whose levels are the given ones: the previous
    level installed by ``make_cloud``, the current one by ``advance_history``."""
    v_n = np.atleast_2d(np.asarray(v_n, dtype=float))
    n = len(v_n)
    grad_n = np.zeros((n, 2, 2)) if grad_n is None else np.asarray(grad_n, dtype=float)
    if not has_history:
        return make_cloud(np.zeros((n, 2)), v_n, grad_n, dt=dt)
    v_prev = np.zeros_like(v_n) if v_prev is None else np.atleast_2d(np.asarray(v_prev, dtype=float))
    grad_prev = np.zeros((n, 2, 2)) if grad_prev is None else np.asarray(grad_prev, dtype=float)
    cloud = make_cloud(np.zeros((n, 2)), v_prev, grad_prev, dt=dt)
    return advance_history(cloud, cloud.positions, v_n, grad_n)


def test_m1_direct_product():
    assert np.allclose(move_m1(cloud_of([1.0, 0.0]), 0.1), [[0.1, 0.0]])


def test_m1_tangential_drift_grows_radius():
    # boundary point of a rotating disc: moving along the tangent leaves the circle
    disp = move_m1(cloud_of([0.0, 1.0], dt=0.05), 0.05)
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
        x = x + move_m1(cloud_of(v, dt=dt), dt)[0]
    assert np.linalg.norm(x) == pytest.approx((1 + dt**2) ** (steps / 2), rel=1e-12)


def test_m2_substitution():
    got = move_m2(cloud_of([2.0, 0.0], v_prev=[1.0, 0.0]), 0.1)
    assert np.allclose(got, [[0.25, 0.0]])


def test_m2_equals_m1_for_constant_velocity():
    cloud = cloud_of([1.3, -0.4], v_prev=[1.3, -0.4], dt=0.07)
    assert np.allclose(move_m2(cloud, 0.07), move_m1(cloud, 0.07))


def test_m2_requires_history():
    with pytest.raises(HistoryMissingError):
        move_m2(cloud_of([1.0, 0.0], has_history=False), 0.1)
    with pytest.raises(HistoryMissingError):
        move_m4(cloud_of([1.0, 0.0], has_history=False), 0.1)


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


@pytest.mark.parametrize("offset", [1.0, True, 2], ids=["float", "bool", "two"])
def test_series_offset_must_be_an_integer_0_or_1(offset):
    with pytest.raises(StructuralError, match="offset"):
        exp_series_apply(np.zeros((1, 2, 2)), np.ones((1, 2)), 0.1, 5, offset=offset)


def test_series_numpy_integer_offset_accepted():
    # offsets follow the count contract of check_count, which takes NumPy integers
    g = np.full((3, 2, 2), 0.5)
    v = np.ones((3, 2))
    assert np.array_equal(
        exp_series_apply(g, v, 0.1, 5, offset=np.int64(1)), exp_series_apply(g, v, 0.1, 5, offset=1)
    )


def per_row(jac, n):
    """The (2, 2) ``jac`` at each of ``n`` rows: a full (n, 2, 2) array, which
    the series takes row by row."""
    return np.tile(jac, (n, 1, 1))


@pytest.mark.parametrize("n", [1, 222, 20_000])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_series_same_bits_on_broadcast_gradient(name, offset, n):
    # an analytic run hands the series one (2, 2) Jacobian for every row: at
    # any N, one row included, its series is v @ S^T with the per-row
    # route's S^T, bit for bit
    jac = SCENARIOS[name].field.jacobian(0.7)
    s_t = exp_series_apply(per_row(jac, 2), np.eye(2), 0.05, 5, offset)
    v = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
    # a run's velocities are column-major: the series keeps that layout
    for vl in (v, np.asfortranarray(v)):
        got = exp_series_apply(jac, vl, 0.05, 5, offset)
        want = np.matmul(vl, s_t, out=np.empty_like(vl))
        assert got.flags.c_contiguous == vl.flags.c_contiguous and got.flags.f_contiguous == vl.flags.f_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 222, 20_000])
@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_uniform_series_matches_the_kernel(name, offset, n):
    # the field's own (2, 2) gradient takes the one-matrix route: S^T with
    # the per-row route's bits on the two unit rows, then v @ S^T, within
    # rounding of the per-row route
    grad = FIELDS[name].gradient(np.zeros((n, 2)), 0.7)
    assert grad.shape == (2, 2)
    # on the two unit rows, the matmul by S^T gives S^T, the per-row route's exactly
    s_t = exp_series_apply(per_row(grad, 2), np.eye(2), 0.05, 5, offset)
    assert np.array_equal(exp_series_apply(grad, np.eye(2), 0.05, 5, offset), s_t)
    norm_s = np.abs(s_t).sum(axis=0).max()    # max row sum of S
    v = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, 2))
    for layout in (np.ascontiguousarray, np.asfortranarray):
        vl = layout(v)
        got, want = exp_series_apply(grad, vl, 0.05, 5, offset), exp_series_apply(per_row(grad, n), vl, 0.05, 5, offset)
        assert got.flags.c_contiguous == vl.flags.c_contiguous
        assert got.flags.f_contiguous == vl.flags.f_contiguous
        bound = 4 * np.finfo(float).eps * norm_s * np.abs(v).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= bound)


def criterion_8_draws():
    """The (A, dt) of criterion 8's 1 000 draws: seed 8, |A| <= 2, dt in [0, 0.2)."""
    rng = np.random.default_rng(8)
    for _ in range(1000):
        a = rng.normal(size=(2, 2))
        a *= min(1.0, 2.0 / np.linalg.norm(a, 2))
        rng.normal(size=2)                      # the draw's v, which S does not use
        yield a, rng.uniform(0.0, 0.2)


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("terms", [1, 2, 5, 20])
def test_shared_series_matrix_is_the_kernels_bit_for_bit(terms, offset):
    # criterion 8 checks the per-row route alone; this equality makes its
    # numbers the ones an analytic run applies
    jacobians = [(f.jacobian(t), dt) for f in FIELDS.values() for t in (0.0, 0.7) for dt in (0.2, 0.05, 0.025)]
    for a, dt in [*criterion_8_draws(), *jacobians]:
        want = exp_series_apply(per_row(a, 2), np.eye(2), dt, terms, offset)
        assert np.array_equal(_series_matrix_t(a.tobytes(), _series_coefficients(dt, terms, offset)), want)
        assert np.array_equal(exp_series_apply(a, np.eye(2), dt, terms, offset), want)


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("terms", [5, 20])
def test_one_row_series_takes_the_per_row_route(terms, offset):
    # a[None] is (1, 2, 2), so criterion 8's one-point draws keep the per-row
    # arithmetic by shape alone: the bits of _series on the row's floats
    rng = np.random.default_rng(8)
    for a, dt in criterion_8_draws():
        v = rng.normal(size=2)
        want = movers._series(a.tolist(), v.tolist(), _series_coefficients(dt, terms, offset))
        assert np.array_equal(exp_series_apply(a[None], v[None], dt, terms, offset), [want])


@pytest.fixture
def builds(monkeypatch) -> list:
    """The coefficient tuple of each S^T the memo builds from here on, from
    an empty memo: ``movers._series_matrix_t`` counted by its misses."""
    memo = movers._series_matrix_t
    memo.cache_clear()
    built = []

    def counted(g_bytes, coeffs):
        misses = memo.cache_info().misses
        s_t = memo(g_bytes, coeffs)
        if memo.cache_info().misses > misses:
            built.append(coeffs)
        return s_t

    monkeypatch.setattr(movers, "_series_matrix_t", counted)
    yield built
    memo.cache_clear()


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_series_matrix_memo_keys_on_the_jacobians_bytes(builds, entry):
    # the two Jacobians compare equal; each gets its own entry, and both
    # equal a fresh build to the sign of every zero
    coeffs = _series_coefficients(0.1, 5, 0)
    plus = np.array([[0.0, 0.0], [0.0, 0.0]])
    plus[1 - entry[0], 1 - entry[1]] = -1.5
    minus = plus.copy()
    minus[entry] = -0.0
    assert np.array_equal(plus, minus) and plus.tobytes() != minus.tobytes()
    for g in (plus, minus, plus, minus):
        got = movers._series_matrix_t(g.tobytes(), coeffs)
        fresh = _series_matrix_t.__wrapped__(g.tobytes(), coeffs)
        assert np.array_equal(got, fresh) and np.array_equal(np.signbit(got), np.signbit(fresh))
    assert builds == [coeffs, coeffs]


def test_series_matrix_memo_is_read_only(builds):
    g = np.array([[0.2, 1.0], [0.3, -0.2]])
    s_t = movers._series_matrix_t(g.tobytes(), _series_coefficients(0.05, 5, 1))
    assert not s_t.flags.writeable
    with pytest.raises(ValueError):
        s_t[0, 0] = 1.0


@pytest.mark.parametrize("mover, tuples", [("m3", 2), ("m4", 3)])
@pytest.mark.parametrize("name", ["rotation", "lissajous", "linear-field"])
def test_steady_run_builds_one_series_matrix_per_coefficient_tuple(builds, name, mover, tuples):
    # 20 steps of 0.05 and a shortened one of 0.02: m3 reads offset 0 at both
    # dts; m4 offset 0 at 0.05 (its m3 bootstrap) and offset 1 at both
    run(make_scenario(name, t_end=1.02), RunConfig(mover=MoverKind(mover), dt=0.05))
    assert len(builds) == len(set(builds)) == tuples


@pytest.mark.parametrize("mover", ["m3", "m4"])
def test_unsteady_run_builds_one_series_matrix_per_level(monkeypatch, builds, mover):
    # each level of the modulated rotation has its own Jacobian, except where
    # sin(pi t) repeats its bits (t and 1 - t); m4 reads each level's series
    # at 0.05, and the last two levels' at the shortened step's 0.02 too
    calls = []
    original = movers.exp_series_apply

    def keyed(grad, v, dt, terms, offset):
        calls.append((grad.tobytes(), _series_coefficients(dt, terms, offset)))
        return original(grad, v, dt, terms, offset)

    monkeypatch.setattr(movers, "exp_series_apply", keyed)
    run(make_scenario("modulated-rotation", t_end=1.02), RunConfig(mover=MoverKind(mover), dt=0.05))
    assert len(calls) == {"m3": 21, "m4": 23}[mover]
    assert len(builds) == len(set(calls)) > len(calls) // 2


@pytest.mark.parametrize(
    "rows, dt, terms, offset, error",
    [(0, 0.1, 5, 0, StructuralError), (2, 0.1, 0, 0, StructuralError), (2, 0.1, 5, 2, StructuralError),
     (2, 0.0, 5, 0, StructuralError), (2, 0.05, 200, 0, NumericInputError)],
    ids=["rows", "terms", "offset", "dt", "overflow"],
)
def test_shared_gradient_series_keeps_the_kernel_checks(rows, dt, terms, offset, error):
    # the (2, 2) route raises what the per-row route would, on a v of
    # ``rows`` rows
    grad, v = np.eye(2), np.ones((rows, 2))
    raised = []
    for g in (grad, per_row(grad, rows)):
        with pytest.raises(error) as info:
            exp_series_apply(g, v, dt, terms, offset)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


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


@pytest.mark.parametrize(
    "dt, terms, offset",
    [(0.05, 200, 0), (0.05, 170, 1), (1e100, 50, 0), (np.float64(1e100), 50, 0), (np.float32(1e30), 50, 0)],
    ids=["factorial-offset0", "factorial-offset1", "power", "power-float64", "power-float32"],
)
def test_series_coefficient_overflow_is_numeric_input_error(dt, terms, offset):
    match = re.escape(f"dt={float(dt)!r}, terms={terms}, offset={offset}")
    with pytest.raises(NumericInputError, match=match):
        exp_series_apply(np.zeros((1, 2, 2)), np.ones((1, 2)), dt, terms, offset)


def test_series_coefficient_overflow_raises_on_every_call():
    # the coefficients are cached per (dt, terms, offset); an exception is not
    for _ in range(3):
        with pytest.raises(NumericInputError, match="overflows a float"):
            exp_series_apply(np.zeros((1, 2, 2)), np.ones((1, 2)), 0.05, 200, 1)


def test_series_numpy_integer_terms_overflow_is_structural_error():
    with pytest.raises(StructuralError):
        exp_series_apply(np.zeros((1, 2, 2)), np.ones((1, 2)), 0.05, np.int64(222))


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
        cloud = cloud_of(v, v_prev, g, g_prev, dt=dt)
        disp, series = move_m4(replace(cloud, series_prev=series), dt)
        assert np.array_equal(disp, move_m4(cloud, dt)[0])
        v_prev, g_prev = v, g
    with pytest.raises(StructuralError):
        small = cloud_of(v[:3], dt=dt)
        advance_history(small, small.positions, v[:3], g[:3], series)


def test_m4_combination_and_series_bits():
    # v dt + (s_now - s_old) * (1 / cloud.dt), formed in place without touching the series
    rng = np.random.default_rng(7)
    v_prev, g_prev = rng.normal(size=(50, 2)), rng.normal(size=(50, 2, 2))
    v, g = rng.normal(size=(50, 2)), rng.normal(size=(50, 2, 2))
    cloud = cloud_of(v, v_prev, g, g_prev, dt=0.07)
    disp, series = move_m4(cloud, 0.05)
    s_now = exp_series_apply(g, v, 0.05, 5, offset=1)
    s_old = exp_series_apply(g_prev, v_prev, 0.05, 5, offset=1)
    assert np.array_equal(series.values, s_now)
    assert np.array_equal(disp, v * 0.05 + (s_now - s_old) * (1.0 / 0.07))
    # a full gradient's series is the kernel's, row by row, in m3 too
    assert np.array_equal(move_m3(cloud, 0.05), exp_series_apply(g, v, 0.05, 5, offset=0))


@pytest.mark.parametrize(
    "dt, error",
    [(np.nan, NumericInputError), (np.inf, NumericInputError), (0.0, StructuralError),
     (-0.1, StructuralError)],
    ids=["nan", "inf", "zero", "negative"],
)
@pytest.mark.parametrize("name", MOVER_NAMES)
def test_displacement_rejects_bad_dt(name, dt, error):
    with pytest.raises(error):
        displacement(MoverKind(name), cloud_of([[1.0, 0.0]] * 3), dt)


def test_shortened_m2_step_differences_over_cloud_dt():
    # accel = (2 - 1) / cloud.dt = 10 over the levels' spacing, integrated over 0.04
    cloud = cloud_of([2.0, 0.0], v_prev=[1.0, 0.0], dt=0.1)
    assert np.allclose(displacement(MoverKind("m2"), cloud, 0.04)[0], [[0.088, 0.0]])
    # no dt: a regular step of cloud.dt
    assert np.array_equal(displacement(MoverKind("m2"), cloud)[0], move_m2(cloud, 0.1))


def test_displacement_bootstraps_without_history():
    rng = np.random.default_rng(8)
    cloud = cloud_of(rng.normal(size=(5, 2)), grad_n=rng.normal(size=(5, 2, 2)), has_history=False)
    disp, series = displacement(MoverKind("m4"), cloud)
    assert series is None and np.array_equal(disp, move_m3(cloud, cloud.dt))
    disp, series = displacement(MoverKind("m2"), cloud)
    assert series is None and np.array_equal(disp, move_m1(cloud, cloud.dt))


def test_m3_and_m4_name_the_level_without_a_gradient():
    v = np.ones((3, 2))
    fresh = make_cloud(np.zeros((3, 2)), v, None, dt=0.1)
    with pytest.raises(StructuralError, match="m3 reads the current level's velocity gradient"):
        move_m3(fresh, 0.1)
    with pytest.raises(StructuralError, match="m3 reads the current level"):
        displacement(MoverKind("m4"), fresh)        # the bootstrap is m3
    with pytest.raises(StructuralError, match="m4 reads the current level"):
        move_m4(advance_history(fresh, fresh.positions, v, None), 0.1)
    # a gradient at the current level only, with the series of the previous one
    # carried at dt 0.1: m4 reads the previous gradient only when the carry misses
    kept = LevelSeries(v * (0.1**2 / 2), 0.1, DEFAULT_TERMS)   # a steady v and zero gradient
    cloud = advance_history(fresh, fresh.positions, v, np.zeros((3, 2, 2)), kept)
    assert np.array_equal(displacement(MoverKind("m4"), cloud)[0], v * 0.1)
    with pytest.raises(StructuralError, match="m4 reads the previous level's velocity gradient"):
        displacement(MoverKind("m4"), cloud, 0.04)


def test_reads_gradient_is_m3_and_m4_and_their_bootstraps():
    for name in MOVER_NAMES:
        kind = MoverKind(name)
        assert kind.reads_gradient == (name in ("m3", "m4")) == kind.bootstrap.reads_gradient


def test_m3_single_step_rotation_accuracy():
    a = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    v = np.array([[0.0, 1.0]])  # field at (1, 0)
    disp = move_m3(cloud_of([0.0, 1.0], grad_n=a), 0.1, terms=5)[0]
    exact = np.array([np.cos(0.1) - 1.0, np.sin(0.1)])
    assert np.abs(disp - exact).max() <= 2e-7


def test_m4_steady_zero_gradient_matches_m3():
    # with A = 0 and steady velocity, m4 collapses to the m3 (= m1) value
    cloud = cloud_of([1.0, 2.0], v_prev=[1.0, 2.0])
    assert np.allclose(move_m4(cloud, 0.1)[0], move_m3(cloud, 0.1))


def test_zero_velocity_fixed_point():
    cloud = cloud_of(
        [0.0, 0.0],
        v_prev=[0.0, 0.0],
        grad_n=np.array([[[0.3, 0.1], [0.2, -0.3]]]),
        grad_prev=np.array([[[0.1, 0.0], [0.0, -0.1]]]),
    )
    for kind in ("m1", "m2", "m3", "m4"):
        assert np.array_equal(displacement(MoverKind(kind), cloud)[0], np.zeros((1, 2)))


def test_mover_kind_validation_and_bootstrap():
    with pytest.raises(StructuralError):
        MoverKind("m9")
    assert MoverKind("m2").bootstrap.name == "m1"
    assert MoverKind("m4", 7).bootstrap == MoverKind("m3", 7)
    assert MoverKind("m1").bootstrap.name == "m1"
