import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import pdist

from lagmove import diagnostics
from lagmove.diagnostics import centroid, eps_volume, measure
from lagmove.errors import DegenerateGeometryError, NumericInputError, StructuralError
from lagmove.movers import MoverKind
from lagmove.scenarios import RunConfig, initial_cloud, make_scenario, sample_disc, step


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


@pytest.mark.parametrize("n", [1, 2, 3, 222, 5000, 20001])
def test_centroid_is_the_exactly_rounded_mean_within_a_bound(n):
    # the reference: math.fsum rounds each column's sum once. A row-order
    # sum errs by at most (n - 1) u sum|x| with u = eps / 2, a pairwise sum
    # by less; with the two divisions' and fsum's roundings the mean is
    # within (n + 2) u max|x| <= n eps max|x| of the reference
    rng = np.random.default_rng(n)
    pos = rng.normal(size=(n, 2)) * 300.0 + [7.0, -3.0]
    exact = np.array([math.fsum(pos[:, k]) / n for k in range(2)])
    bound = n * np.finfo(float).eps * np.abs(pos).max()
    # a C-ordered array and a run's column-major positions
    for layout in (pos, np.asfortranarray(pos)):
        assert np.all(np.abs(centroid(layout) - exact) <= bound)


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


def test_degenerate_message_is_qhull_first_line():
    # Qhull's message goes on to dump its options and input, dozens of lines
    with pytest.raises(DegenerateGeometryError) as info:
        measure(points([[-1.0, 0.0], [1.0, 0.0], [0.58, 0.0]]))
    assert "\n" not in str(info.value)
    assert str(info.value).startswith("degenerate point set: QH")


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
    for fn in (centroid, measure):
        with pytest.raises(StructuralError):
            fn(np.zeros(5))


def test_list_positions_rejected():
    for fn in (centroid, measure):
        with pytest.raises(StructuralError):
            fn(SQUARE)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_positions_rejected(value):
    pos = points(SQUARE)
    pos[2, 0] = value
    for fn in (centroid, measure):
        with pytest.raises(NumericInputError):
            fn(pos)


# Qhull over rows outside the extreme octagon's inscribed circle, at every
# size, against Qhull over every row.


def unfiltered_measure(pos):
    """Qhull over all rows, then the largest distance over every pair of its vertices."""
    hull = ConvexHull(pos)
    v = pos[hull.vertices]
    diff = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max()), float(hull.volume)


@pytest.fixture(scope="module")
def rotated_disc():
    """The 20 000-point disc after 15 m4 steps of the modulated rotation."""
    scenario = make_scenario("modulated-rotation", 20000)
    config = RunConfig(MoverKind("m4"), 0.05)
    cloud = initial_cloud(scenario, config)
    for _ in range(15):
        cloud = step(cloud, scenario, config)
    return cloud.positions


def sliver(n, aspect, theta, rng):
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return (rng.normal(size=(n, 2)) * [1.0, 1.0 / aspect]) @ q.T + [3.0, -7.0]


def lattice(n):
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    return np.stack([i.ravel(), j.ravel()], axis=1).astype(float)


def with_duplicates(pos):
    return np.concatenate([pos, pos[::3], pos[:10]])


def thin_triangle_between_directions(rng):
    """2 000 rows inside a flat triangle, its apex 1e-3 above the middle of
    its base, turned by pi / 32: the apex is the extreme only within about
    1e-3 of pi / 2 + pi / 32, which no filter direction (k pi / 16) is, so
    every filter corner is an end of the base and both passes keep every row."""
    u, v = rng.uniform(size=(2, 2000))
    fold = u + v > 1.0
    u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
    a, b, apex = np.array([-1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1e-3])
    tri = np.concatenate([[a, b, apex], a + np.outer(u, b - a) + np.outer(v, apex - a)])
    return rotate(tri, np.pi / 32)


def octagon_edge_points(rng):
    """A regular octagon, whose corners are the extremes, with 2 000 rows
    inside, its edge midpoints, where the inscribed circle touches, and the
    midpoints pushed out by 1e-12, which are hull vertices."""
    corners = np.exp(1j * np.pi / 4 * np.arange(8))
    mid = np.exp(1j * np.pi / 4 * (np.arange(8) + 0.5)) * np.cos(np.pi / 8)
    inside = 0.9 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    z = np.concatenate([inside, corners, mid, mid * (1.0 + 1e-12)])
    return np.stack([z.real, z.imag], axis=1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.random.default_rng(6).normal(size=(5000, 2)),
        lambda: np.random.default_rng(6).normal(size=(5000, 2)) + [1e6, -1e6],
        lambda: sliver(5000, 1e5, 0.0, np.random.default_rng(7)),
        lambda: sliver(5000, 1e5, 0.7, np.random.default_rng(7)),
        lambda: lattice(60),
        lambda: with_duplicates(np.random.default_rng(8).normal(size=(2000, 2))),
        lambda: octagon_edge_points(np.random.default_rng(10)),
        lambda: points(SQUARE + [[0.5, 0.5]]),
        lambda: with_duplicates(np.random.default_rng(11).normal(size=(40, 2))),
        # the middle of the bottom edge is on the hull but is no vertex
        lambda: points(SQUARE + [[0.5, 0.0], [0.3, 0.6], [0.7, 0.2]]),
        lambda: thin_triangle_between_directions(np.random.default_rng(12)),
    ],
    ids=[
        "gaussian-5000", "gaussian-far", "sliver-1e5", "sliver-1e5-rotated",
        "lattice-60x60", "duplicates", "octagon-edge-points",
        "square-and-centre", "duplicates-40", "collinear-on-edge",
        "thin-triangle-between-directions",
    ],
)
def test_filtered_measure_equals_unfiltered(make):
    pos = make()
    assert measure(pos) == unfiltered_measure(pos)


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float32])
def test_filtered_measure_of_other_dtypes(dtype):
    # Qhull and pdist take rows as float64; the filter does too, so an
    # unsigned x - y cannot wrap
    pos = lattice(30).astype(dtype)
    assert len(pos) > diagnostics.UNFILTERED_ROWS
    assert measure(pos) == unfiltered_measure(pos.astype(float))


def test_filter_corners_on_one_line_keep_every_row():
    # both passes find collinear corners, so each returns its input
    pos = thin_triangle_between_directions(np.random.default_rng(12))
    assert diagnostics._hull_candidates(pos) is pos
    assert len(ConvexHull(pos).vertices) == 3


def test_filter_margin_keeps_vertices_ulps_outside_the_inscribed_circle():
    # the regular octagon's corners are the first pass's, and its edge
    # midpoints, pushed out by one ulp, are exactly outside their edges and
    # so hull vertices; the inscribed circle touches the edges there, so
    # without HULL_FILTER_MARGIN rounding drops three of the eight
    angles = np.pi / 4 * np.arange(8)
    corners = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pushed = (corners + np.roll(corners, -1, axis=0)) / 2.0 * (1.0 + 2.0**-52)
    inside = np.random.default_rng(13).uniform(-0.5, 0.5, size=(40, 2))
    pos = np.concatenate([corners, inside, pushed])
    for a, b, p in zip(corners, np.roll(corners, -1, axis=0), pushed):
        (ax, ay), (bx, by), (px, py) = (map(Fraction, row) for row in (a, b, p))
        assert (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0
    kept = {tuple(row) for row in diagnostics._hull_candidates(pos)}
    assert {tuple(row) for row in pushed} <= kept


def test_filtered_measure_equals_unfiltered_on_rotated_disc(rotated_disc):
    assert measure(rotated_disc) == unfiltered_measure(rotated_disc)


@pytest.mark.parametrize("theta", [0.3, 1.1])
@pytest.mark.parametrize("n", [4, 5, 10, 30, 100, 222, 999])
def test_filtered_measure_equals_unfiltered_on_small_discs(n, theta):
    pos = rotate(sample_disc((0.0, 0.0), 1.0, n), theta)
    assert measure(pos) == unfiltered_measure(pos)


coordinate = st.one_of(
    st.integers(-3, 3).map(float),     # lattice values: duplicates and collinear rows
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=60))
@example(rows=[(0.0, 0.0), (649.0, 558.0), (-806.0, -769.0), (-116.0, 0.0)])
def test_filtered_measure_is_the_hull_of_every_row(rows):
    # Qhull sums the area over facets seen from an interior point of the
    # rows it is given, so the filtered area may differ in its last bits
    # (the example: 101632.49999999994 against ...96); the hull and the
    # diameter may not differ at all
    pos = points(rows)
    try:
        hull = ConvexHull(pos)
    except QhullError:
        with pytest.raises(DegenerateGeometryError):
            measure(pos)
        return
    kept = diagnostics._hull_candidates(pos)
    assert {tuple(row) for row in pos[hull.vertices]} <= {tuple(row) for row in kept}
    # measure hands Qhull a cloud this small whole, so the filtered hull is
    # taken here
    diameter, volume = unfiltered_measure(kept)
    expected_diameter, expected_volume = unfiltered_measure(pos)
    assert diameter == expected_diameter
    rounding = np.finfo(float).eps * len(pos) * np.abs(pos).max() ** 2
    assert abs(volume - expected_volume) <= rounding


@pytest.mark.parametrize(
    "pos",
    [
        np.ones((2000, 2)),
        np.stack([np.linspace(-1.0, 2.0, 2000), 0.3 * np.linspace(-1.0, 2.0, 2000) + 0.1], axis=1),
        np.repeat([[0.0, 0.0], [1.0, 2.0]], 1000, axis=0),
    ],
    ids=["coincident", "collinear", "two-clusters"],
)
def test_degenerate_large_sets_rejected(pos):
    with pytest.raises(DegenerateGeometryError):
        measure(pos)


def test_non_finite_large_set_rejected():
    pos = np.random.default_rng(9).normal(size=(2000, 2))
    pos[1234, 1] = np.nan
    with pytest.raises(NumericInputError):
        measure(pos)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e154, 1e155, -1e200, 1e308])
def test_coordinates_past_the_limit_are_a_numeric_input_error(scale):
    # the hull filter would square them into an overflow, and Qhull would
    # then call the disc flat: the honest error names the overflow
    with pytest.raises(NumericInputError, match="overflow a float"):
        measure(scale * sample_disc((0.0, 0.0), 1.0, 222))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coordinates_up_to_the_limit_are_measured():
    dia, area = measure(1e150 * sample_disc((0.0, 0.0), 1.0, 222))
    assert dia == 2e150 and area == pytest.approx(3.1187e300, rel=1e-4)
    m = diagnostics.MAX_COORDINATE
    square = points([[m, m], [-m, m], [-m, -m], [m, -m], [0.0, 0.0]])
    assert measure(square) == (2.0**511 * np.sqrt(2.0), 2.0**1022)


def vertex_diameter(pos):
    """The largest distance between two of Qhull's vertices of every row, by pdist."""
    return pdist(pos[ConvexHull(pos).vertices]).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "make",
    [
        lambda: 1e-155 * np.random.default_rng(14).normal(size=(2000, 2)),
        lambda: diagnostics.MAX_COORDINATE * sample_disc((0.0, 0.0), 1.0, 5000),
    ],
    ids=["squares-underflow", "near-the-limit"],
)
def test_diameter_is_the_root_of_the_largest_squared_distance_at_the_extremes(make):
    # every squared distance of the 1e-155 cloud is subnormal, and the
    # largest of the other is 2**1022: sqrt is monotone and correctly
    # rounded, so the root of the largest square is pdist's largest distance
    pos = make()
    assert measure(pos)[0] == vertex_diameter(pos)


def test_diameter_is_the_root_of_the_largest_squared_distance(rotated_disc):
    assert measure(rotated_disc)[0] == vertex_diameter(rotated_disc)
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(3, 2000))
        pos = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, size=2) + rng.normal(size=2)
        assert measure(pos)[0] == vertex_diameter(pos)


@pytest.fixture
def hull_rows(monkeypatch):
    """Row counts of the arrays handed to Qhull."""
    rows = []
    hull = diagnostics.ConvexHull

    def counted(points, *args, **kwargs):
        rows.append(len(points))
        return hull(points, *args, **kwargs)

    monkeypatch.setattr(diagnostics, "ConvexHull", counted)
    return rows


def test_large_disc_goes_to_qhull_filtered(hull_rows, rotated_disc):
    measure(rotated_disc)
    assert len(hull_rows) == 1 and hull_rows[0] < 0.05 * len(rotated_disc)


def test_clouds_up_to_the_row_limit_go_to_qhull_whole(hull_rows):
    limit = diagnostics.UNFILTERED_ROWS
    for n in (limit, limit + 1):
        pos = rotate(sample_disc((0.0, 0.0), 1.0, n), 0.3)
        assert measure(pos) == unfiltered_measure(pos)
    assert hull_rows[0] == limit and hull_rows[1] < 0.5 * limit
