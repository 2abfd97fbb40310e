import numpy as np
import pytest

from lagmove.errors import NumericInputError, StructuralError
from lagmove.neighbors import brute_force_neighbors, build_index


def test_two_points_within_radius():
    index = build_index(np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0)
    assert list(index.lists[0]) == [1]
    assert list(index.lists[1]) == [0]


def test_two_points_out_of_radius():
    index = build_index(np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0)
    assert len(index.lists[0]) == 0
    assert len(index.lists[1]) == 0


def test_tie_at_exact_radius_included():
    index = build_index(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
    assert list(index.lists[0]) == [1]


def test_neighbors_sorted_ascending():
    pos = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [5.0, 5.0]]
    index = build_index(np.array(pos), 0.5)
    nbrs = index.lists[0]
    assert list(nbrs) == sorted(nbrs)
    assert list(index.lists[4]) == []


def test_invalid_inputs_rejected():
    with pytest.raises(StructuralError):
        build_index(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0)
    with pytest.raises(StructuralError):
        build_index(np.array([[0.0, 0.0], [1.0, 0.0]]), np.nan)
    with pytest.raises(StructuralError):
        build_index(np.zeros((0, 2)), 1.0)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
def test_non_matrix_positions_rejected(shape):
    with pytest.raises(StructuralError):
        build_index(np.zeros(shape), 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_positions_rejected(value):
    pos = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    pos[1, 1] = value
    with pytest.raises(NumericInputError):
        build_index(pos, 1.0)


@pytest.mark.parametrize("trial", range(10))
def test_matches_brute_force_2d(trial):
    rng = np.random.default_rng(trial)
    pos = rng.uniform(0.0, 1.0, size=(100, 2))
    index = build_index(pos, 0.2)
    brute = brute_force_neighbors(pos, 0.2)
    for i in range(100):
        assert np.array_equal(index.lists[i], brute[i])


def test_symmetry():
    rng = np.random.default_rng(3)
    pos = rng.uniform(0.0, 1.0, size=(60, 2))
    index = build_index(pos, 0.25)
    for i in range(60):
        for j in index.lists[i]:
            assert i in index.lists[j]


def test_rigid_translation_preserves_topology():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0.0, 1.0, size=(80, 2))
    a = build_index(pos, 0.2)
    b = build_index(pos + np.array([13.0, -7.0]), 0.2)
    for la, lb in zip(a.lists, b.lists):
        assert np.array_equal(la, lb)


def cloud_with_isolated_point(trial):
    rng = np.random.default_rng(40 + trial)
    return np.vstack([rng.uniform(0.0, 1.0, size=(120, 2)), [[5.0, 5.0]]])


@pytest.mark.parametrize("trial", range(3))
def test_neighbor_count_matches_brute_force(trial):
    pos = cloud_with_isolated_point(trial)
    counts = build_index(pos, 0.2).neighbor_count()
    assert np.array_equal(counts, [len(b) for b in brute_force_neighbors(pos, 0.2)])
    assert counts[-1] == 0


@pytest.mark.parametrize("trial", range(3))
def test_each_pair_held_once_lower_row_first(trial):
    pos = cloud_with_isolated_point(trial)
    pairs = build_index(pos, 0.2).pairs
    i, j = pairs.T
    assert pairs.shape[1] == 2 and np.all(i < j)
    assert len(np.unique(i * len(pos) + j)) == len(pairs)
    assert 2 * len(pairs) == sum(len(b) for b in brute_force_neighbors(pos, 0.2))
