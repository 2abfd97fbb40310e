import logging
import re

import numpy as np
import pytest

from lagmove.errors import (
    IllConditionedStencilError,
    NumericInputError,
    StencilDeficiencyError,
    StructuralError,
)
from lagmove.gfdm import (
    CONDITION_LIMIT,
    TRACE_FLOOR,
    WEIGHT_EXPONENT,
    _det_and_condition,
    all_gradients,
    wlsq_gradient,
)
from lagmove.fields import RigidRotation
from lagmove.neighbors import NeighborIndex, build_index
from lagmove.scenarios import sample_disc


def linear_field(positions, A, b):
    """Positions and the velocities of v(x) = A x + b at them."""
    positions = np.asarray(positions, dtype=float)
    return positions, positions @ np.asarray(A, dtype=float).T + np.asarray(b, dtype=float)


def random_positions(rng, n=80):
    return rng.uniform(-1.0, 1.0, size=(n, 2))


def test_reproduces_rotation_gradient():
    rng = np.random.default_rng(0)
    pos, vel = linear_field(random_positions(rng), [[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0])
    index = build_index(pos, 0.5)
    grad = wlsq_gradient(pos, vel, index, 0.5, 0)
    assert np.abs(grad - [[0.0, -1.0], [1.0, 0.0]]).max() <= 1e-10


def test_constant_velocity_gives_zero_gradient():
    rng = np.random.default_rng(1)
    pos, vel = linear_field(random_positions(rng), np.zeros((2, 2)), [3.0, 5.0])
    index = build_index(pos, 0.5)
    grad = wlsq_gradient(pos, vel, index, 0.5, 5)
    assert np.abs(grad).max() <= 1e-10


@pytest.mark.parametrize("trial", range(10))
def test_exact_linear_reproduction(trial, caplog):
    rng = np.random.default_rng(100 + trial)
    A = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    pos, vel = linear_field(random_positions(rng), A, b)
    index = build_index(pos, 0.7)
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(pos, vel, index, 0.7)
    assert not fallback_warnings(caplog)
    assert np.abs(grads - A).max() <= 1e-10


def test_translation_invariance(caplog):
    rng = np.random.default_rng(7)
    pos = random_positions(rng)
    A, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    _, vel = linear_field(pos, A, b)
    # translate positions only; velocity differences are unchanged
    shifted = pos + np.array([11.0, -4.0])
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        ga = all_gradients(pos, vel, build_index(pos, 0.5), 0.5)
        gb = all_gradients(shifted, vel, build_index(shifted, 0.5), 0.5)
    assert not fallback_warnings(caplog)
    assert np.abs(ga - gb).max() <= 1e-12


def test_rotation_equivariance(caplog):
    rng = np.random.default_rng(8)
    pos = random_positions(rng)
    theta = 0.61
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    A, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    _, vel = linear_field(pos, A, b)
    rot_pos, rot_vel = pos @ q.T, vel @ q.T
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        ga = all_gradients(pos, vel, build_index(pos, 0.5), 0.5)
        gb = all_gradients(rot_pos, rot_vel, build_index(rot_pos, 0.5), 0.5)
    assert not fallback_warnings(caplog)
    assert np.abs(gb - q @ ga @ q.T).max() <= 1e-10


def test_first_order_convergence_on_quadratic_field():
    # v = (x^2, 0): fitted gradient error at the origin shrinks ~ h
    errs = []
    for h in (0.1, 0.05):
        rng = np.random.default_rng(11)
        pos = np.vstack([[0.0, 0.0], rng.uniform(-h, h, size=(40, 2))])
        vel = np.stack([pos[:, 0] ** 2, np.zeros(len(pos))], axis=1)
        grad = wlsq_gradient(pos, vel, build_index(pos, 2 * h), h, 0)
        errs.append(np.abs(grad - np.zeros((2, 2))).max())
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 1.4  # roughly first order in h


@pytest.mark.parametrize("trial, squash", enumerate([1.0, 1e-1, 1e-2, 1e-3, 3e-4]))
def test_closed_form_condition_matches_lapack(trial, squash):
    # squashing y moves the stencil conditions from ~1 up to ~1e6
    rng = np.random.default_rng(500 + trial)
    pos = rng.uniform(-1.0, 1.0, size=(120, 2)) * [1.0, squash]
    index = build_index(pos, 0.4)
    mats = []
    for i, j in enumerate(index.lists):
        dx = pos[j] - pos[i]
        w = np.exp(-WEIGHT_EXPONENT * np.einsum("ij,ij->i", dx, dx) / 0.4**2)
        mats.append(dx.T @ (w[:, None] * dx))
    mats = np.array(mats)
    want = np.linalg.cond(mats)
    _, got = _det_and_condition(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1])
    keep = want <= 1e6
    assert keep.sum() >= 100
    assert np.all(np.abs(got[keep] - want[keep]) <= 1e-8 * want[keep])


def test_deficient_stencil_raises():
    pos, vel = linear_field([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]], np.eye(2), [0.0, 0.0])
    index = build_index(pos, 0.5)
    with pytest.raises(StencilDeficiencyError):
        wlsq_gradient(pos, vel, index, 0.5, 0)


def test_unknown_row_rejected():
    pos, vel = linear_field([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], np.eye(2), [0.0, 0.0])
    index = build_index(pos, 0.5)
    for row in (3, 99, -1):
        with pytest.raises(StructuralError):
            wlsq_gradient(pos, vel, index, 0.5, row)


def test_zero_fallback_with_warning(caplog):
    pos, vel = linear_field([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]], np.eye(2), [0.0, 0.0])
    index = build_index(pos, 0.5)
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(pos, vel, index, 0.5)
    assert np.array_equal(grads, np.zeros((3, 2, 2)))
    assert any("fallback" in r.message for r in caplog.records)


def fallback_warnings(caplog):
    return [r for r in caplog.records if r.name == "lagmove.gfdm"]


@pytest.mark.parametrize("d, radius", [(2, 0.55)])
@pytest.mark.parametrize("trial", range(3))
def test_batched_fit_matches_per_point_oracle(d, radius, trial, caplog):
    rng = np.random.default_rng(300 + trial)
    pos = rng.uniform(-1.0, 1.0, size=(150, d))
    # fallback rows: four collinear points (ill-conditioned, each has d or
    # more neighbors) and one isolated point (deficient)
    line = np.zeros((4, d))
    line[:, 0] = 0.1 * np.arange(4)
    pos = np.vstack([pos, line + 5.0, np.full((1, d), -5.0)])
    n = len(pos)
    vel = np.sin(3.0 * pos) + pos @ rng.normal(size=(d, d)).T
    index = build_index(pos, radius)
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(pos, vel, index, radius)
    fallen = []
    for i in range(n):
        try:
            ref = wlsq_gradient(pos, vel, index, radius, i)
        except (StencilDeficiencyError, IllConditionedStencilError):
            assert np.array_equal(grads[i], np.zeros((d, d)))
            fallen.append(i)
        else:
            assert np.abs(grads[i] - ref).max() <= 1e-12
    assert fallen == list(range(150, 155))
    messages = [r.getMessage() for r in fallback_warnings(caplog)]
    assert len(messages) == len(fallen)
    assert all(re.search(rf"point {i}\b", m) for i, m in zip(fallen, messages))


def collinear_field():
    return linear_field([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], np.eye(2), [0.0, 0.0])


def test_collinear_stencil_falls_back_with_one_warning_per_point(caplog):
    pos, vel = collinear_field()
    index = build_index(pos, 0.5)
    assert index.neighbor_count().min() >= 2  # not deficient: the fit is singular
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(pos, vel, index, 0.5)
    assert np.array_equal(grads, np.zeros((3, 2, 2)))
    messages = [r.getMessage() for r in fallback_warnings(caplog)]
    assert len(messages) == 3
    assert all("condition" in m for m in messages)


def test_collinear_stencil_raises_without_fallback():
    # the per-point oracle has no fallback
    pos, vel = collinear_field()
    index = build_index(pos, 0.5)
    with pytest.raises(IllConditionedStencilError):
        wlsq_gradient(pos, vel, index, 0.5, 1)


@pytest.mark.parametrize(
    "case",
    ["velocity-rows", "velocity-columns", "flat-arrays", "index-of-another-set", "list-positions"],
)
def test_mismatched_shapes_rejected(case):
    pos, vel = linear_field(random_positions(np.random.default_rng(2)), np.eye(2), [0.0, 0.0])
    index = build_index(pos, 0.5)
    args = {
        "velocity-rows": (pos, vel[:-1]),
        "velocity-columns": (pos, np.zeros((80, 3))),
        "flat-arrays": (pos.ravel(), vel.ravel()),
        "index-of-another-set": (pos[:-1], vel[:-1]),
        "list-positions": (pos.tolist(), vel),
    }[case]
    with pytest.raises(StructuralError):
        all_gradients(*args, index, 0.5)
    with pytest.raises(StructuralError):
        wlsq_gradient(*args, index, 0.5, 0)


@pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf])
def test_bad_smoothing_length_rejected(h):
    pos, vel = linear_field(random_positions(np.random.default_rng(3)), np.eye(2), [0.0, 0.0])
    index = build_index(pos, 0.5)
    with pytest.raises(StructuralError):
        all_gradients(pos, vel, index, h)
    with pytest.raises(StructuralError):
        wlsq_gradient(pos, vel, index, h, 0)


@pytest.mark.parametrize("which", ["positions", "velocities"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_inputs_rejected(which, value):
    pos, vel = linear_field(random_positions(np.random.default_rng(5)), np.eye(2), [0.0, 0.0])
    index = build_index(pos, 0.5)
    row = int(np.argmax(index.neighbor_count()))
    {"positions": pos, "velocities": vel}[which][row, 1] = value
    with pytest.raises(NumericInputError):
        all_gradients(pos, vel, index, 0.5)
    with pytest.raises(NumericInputError):
        wlsq_gradient(pos, vel, index, 0.5, row)



# the linear-field scenario's A
A_LINEAR = [[0.2, 1.0], [0.3, -0.2]]


def fallen_rows(caplog):
    """Row -> message of every fallback warning."""
    messages = [r.getMessage() for r in fallback_warnings(caplog)]
    return {int(re.search(r"point (\d+)", m).group(1)): m for m in messages}


def assert_pair_falls_back(pos, h, caplog):
    """Both rows of the two-point ``pos`` get a zero gradient and one
    "has 1 neighbors" warning each."""
    pos, vel = linear_field(pos, A_LINEAR, [0.0, 0.0])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(pos, vel, build_index(pos, h), h)
    assert np.array_equal(grads, np.zeros((2, 2, 2)))
    messages = fallen_rows(caplog)
    assert sorted(messages) == [0, 1]
    assert all("has 1 neighbors" in m for m in messages.values())


def test_one_neighbor_pairs_fall_back_at_every_orientation_and_scale(caplog):
    # the fit tells a one-neighbour stencil by its condition alone: rank 1
    # leaves a det of a few ulps of a c at most, so its cond is past 1e15
    rng = np.random.default_rng(41)
    for theta, scale in zip(rng.uniform(0.0, 2.0 * np.pi, 1000), 10.0 ** rng.uniform(-70.0, 70.0, 1000)):
        start = scale * rng.uniform(-1.0, 1.0, 2)
        assert_pair_falls_back([start, start + scale * np.array([np.cos(theta), np.sin(theta)])], 2.0 * scale, caplog)


def sub_floor_one_neighbor_steps():
    """(dx, dy, h) of one-neighbour stencils whose normal matrix, summed as
    ``all_gradients`` sums it, has a trace under ``TRACE_FLOOR`` and yet a
    condition within ``CONDITION_LIMIT``: a c and b^2 are subnormal there,
    so their difference can round to a grid step, not to 0. A seeded search
    over pairs about 3e-78 apart, where about 1 in 10^5 is such a stencil."""
    rng = np.random.default_rng(77)
    found = []
    for _ in range(4):
        theta = rng.uniform(0.0, 2.0 * np.pi, 250_000)
        d = rng.uniform(2.6e-78, 3.2e-78, 250_000)
        dx, dy, h = d * np.cos(theta), d * np.sin(theta), 2.0 * d
        w = np.exp(-WEIGHT_EXPONENT * (dx * dx + dy * dy) / (h * h))
        wx, wy = w * dx, w * dy
        a, b, c = wx * dx, wx * dy, wy * dy
        _, cond = _det_and_condition(a, b, c)
        hit = (cond <= CONDITION_LIMIT) & (a + c < TRACE_FLOOR)
        found += zip(dx[hit], dy[hit], h[hit])
    return found


def test_sub_floor_one_neighbor_stencils_whose_condition_passes_fall_back(caplog):
    steps = sub_floor_one_neighbor_steps()
    assert len(steps) >= 5
    for dx, dy, h in steps:
        assert_pair_falls_back([[0.0, 0.0], [dx, dy]], h, caplog)


@pytest.mark.parametrize("n", [3, 12])
def test_cloud_below_the_trace_floor_falls_back_with_condition_inf(n, caplog):
    # every row has 2 or more neighbours, and its trace is under TRACE_FLOOR,
    # where lambda_max^2 and det are subnormal and cond says nothing
    if n == 3:
        pos, h = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]]) * 1e-77, 1.5e-77
    else:
        pos, h = sample_disc((0.0, 0.0), 1e-77, n), 1e-77
    pos, vel = linear_field(pos, A_LINEAR, [0.0, 0.0])
    index = build_index(pos, h)
    assert index.neighbor_count().min() >= 2
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        grads = all_gradients(pos, vel, index, h)
    assert np.array_equal(grads, np.zeros((n, 2, 2)))
    messages = fallen_rows(caplog)
    assert sorted(messages) == list(range(n))
    assert all("condition inf exceeds" in m for m in messages.values())


def test_neighbor_count_is_read_only_when_a_row_falls_back(monkeypatch, caplog):
    rng = np.random.default_rng(9)
    pos, vel = linear_field(random_positions(rng), rng.normal(size=(2, 2)), rng.normal(size=2))
    index = build_index(pos, 0.5)
    monkeypatch.setattr(NeighborIndex, "neighbor_count", lambda self: pytest.fail("neighbor_count read"))
    with caplog.at_level(logging.WARNING, logger="lagmove.gfdm"):
        all_gradients(pos, vel, index, 0.5)
    assert not fallback_warnings(caplog)


def test_a_disc_spaced_past_float_range_is_refused_not_zeroed():
    # a c overflows past a spacing of about 1e77: det is not finite, and the
    # fit says so instead of zeroing every row with condition nan
    positions = sample_disc((0.0, 0.0), 1.0, 222) * 1e100
    velocities = RigidRotation().evaluate(positions, 0.0)
    h = 0.3e100
    with pytest.raises(NumericInputError, match=r"largest stencil trace [0-9.]+e\+198"):
        all_gradients(positions, velocities, build_index(positions, h), h)
