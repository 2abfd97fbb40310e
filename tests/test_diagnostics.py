import numpy as np
import pytest

from lagmove.diagnostics import centroid, eps_volume, eps_x, measure
from lagmove.errors import DegenerateGeometryError, NumericInputError, StructuralError
from lagmove.scenarios import sample_disc


def points(positions):
    return np.asarray(positions, dtype=float)


def rotate(points, theta):
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return np.asarray(points) @ q.T


def diameter(positions):
    return measure(positions)[0]


def hull_volume(positions):
    return measure(positions)[1]


def test_centroid_mean():
    assert np.allclose(centroid(points([[0.0, 0.0], [2.0, 0.0]])), [1.0, 0.0])


def test_centroid_translates_exactly():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(30, 2))
    shift = np.array([2.5, -1.75])
    assert np.allclose(
        centroid(points(pos + shift)), centroid(points(pos)) + shift, atol=1e-12
    )


def test_centroid_of_symmetric_ring():
    theta = 2 * np.pi * np.arange(16) / 16
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert np.abs(centroid(points(ring))).max() <= 1e-12


def test_diameter_antipodal():
    theta = 2 * np.pi * np.arange(8) / 8
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert diameter(points(pts)) == pytest.approx(2.0)


def test_diameter_coincident_points():
    # no full-dimensional hull, so no diameter either
    with pytest.raises(DegenerateGeometryError):
        measure(points([[1.0, 1.0]] * 3))


@pytest.mark.parametrize(
    "pos",
    [
        np.random.default_rng(1).normal(size=(50, 2)),
        rotate(sample_disc((0.0, 0.0), 1.0, 222), 0.3),
        np.random.default_rng(2).normal(size=(1500, 2)),
    ],
    ids=["random-50", "disc-222-rotated", "random-1500"],
)
def test_diameter_matches_all_pairs_oracle(pos):
    diff = pos[:, None, :] - pos[None, :, :]
    brute = np.sqrt((diff**2).sum(-1).max())
    assert measure(points(pos))[0] == pytest.approx(brute, rel=1e-15)


def test_rigid_rotation_leaves_metrics_invariant():
    rng = np.random.default_rng(3)
    pos = rng.normal(size=(60, 2))
    rotated = rotate(pos, 1.234)
    assert diameter(points(rotated)) == pytest.approx(
        diameter(points(pos)), rel=1e-12
    )
    assert hull_volume(points(rotated)) == pytest.approx(
        hull_volume(points(pos)), rel=1e-12
    )


def test_eps_x_values():
    c = points([[3.0, 4.0]] * 3)
    assert eps_x(c, [0.0, 0.0]) == pytest.approx(5.0)
    assert eps_x(c, [3.0, 4.0]) == 0.0


def test_hull_volume_unit_square():
    c = points([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert hull_volume(c) == pytest.approx(1.0)


def test_hull_volume_regular_polygon():
    n = 222
    theta = 2 * np.pi * np.arange(n) / n
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert hull_volume(points(pts)) == pytest.approx((n / 2) * np.sin(2 * np.pi / n))


def test_hull_volume_interior_points_irrelevant():
    rng = np.random.default_rng(4)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    interior = rng.uniform(0.1, 0.9, size=(40, 2))
    assert hull_volume(points(np.vstack([corners, interior]))) == pytest.approx(
        hull_volume(points(corners))
    )


def test_hull_volume_degenerate_rejected():
    with pytest.raises(DegenerateGeometryError):
        hull_volume(points([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))


def test_metrics_invariant_under_reordering():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(40, 2))
    perm = rng.permutation(40)
    assert diameter(points(pos[perm])) == diameter(points(pos))
    assert hull_volume(points(pos[perm])) == pytest.approx(hull_volume(points(pos)))
    assert np.allclose(centroid(points(pos[perm])), centroid(points(pos)))


def test_eps_volume_values():
    assert eps_volume(2.0, 2.0) == 0.0
    assert eps_volume(2.0, 1.0) == 0.5
    with pytest.raises(StructuralError):
        eps_volume(0.0, 1.0)


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def test_non_matrix_positions_rejected():
    for fn in (centroid, measure, lambda p: eps_x(p, [0.0, 0.0])):
        with pytest.raises(StructuralError):
            fn(np.zeros(5))


def test_list_positions_rejected():
    for fn in (centroid, measure, lambda p: eps_x(p, [0.0, 0.0])):
        with pytest.raises(StructuralError):
            fn(SQUARE)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_positions_rejected(value):
    pos = points(SQUARE)
    pos[2, 0] = value
    for fn in (centroid, measure, lambda p: eps_x(p, [0.0, 0.0])):
        with pytest.raises(NumericInputError):
            fn(pos)
