"""Fixed-radius neighbor search with a KD-tree, stored as a list of pairs.

``scipy.spatial.cKDTree.query_pairs`` gives every unordered pair within the
radius (points exactly at distance r are included) once, as a row (i, j)
with i < j. The WLSQ fit sums each pair onto both of its ends, so that list
is the index; ``lists`` expands it per row (ascending, self excluded) for
the oracle and the checks. The search takes an (N, 2) position array; a
cloud so large that the tree's squared distances overflow is a
``NumericInputError``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import NumericInputError, check_points, check_positive


@dataclass(frozen=True)
class NeighborIndex:
    n: int                # number of points indexed
    pairs: np.ndarray     # (P, 2) rows (i, j), i < j: every pair within the radius, once

    def neighbor_count(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)

    @property
    def lists(self) -> tuple[np.ndarray, ...]:
        """Per point: its neighbor rows, ascending."""
        rows, cols = self.pairs.ravel(), self.pairs[:, ::-1].ravel()
        order = np.lexsort((cols, rows))
        return tuple(np.split(cols[order], np.cumsum(self.neighbor_count())[:-1]))


def build_index(positions: np.ndarray, radius: float) -> NeighborIndex:
    """Pair index of every two rows of ``positions`` within ``radius``."""
    check_positive(radius, "search radius")
    n = len(check_points(positions, "positions"))
    tree = cKDTree(positions)
    try:
        pairs = tree.query_pairs(radius, output_type="ndarray")
    except ValueError as exc:   # on checked input, only an overflowed distance raises it
        raise NumericInputError(
            f"a coordinate of magnitude {np.abs(positions).max():.6g}: "
            "the neighbor search's squared distances overflow a float"
        ) from exc
    return NeighborIndex(n=n, pairs=pairs)


def brute_force_neighbors(positions: np.ndarray, radius: float) -> list[np.ndarray]:
    """Reference O(N^2) all-pairs scan; oracle for the KD-tree index."""
    pos = np.asarray(positions, dtype=float)
    out = []
    for i in range(len(pos)):
        diff = pos - pos[i]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        mask = (dist2 <= radius * radius)
        mask[i] = False
        out.append(np.flatnonzero(mask).astype(np.int64))
    return out
