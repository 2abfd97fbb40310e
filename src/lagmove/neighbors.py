"""Fixed-radius neighbor search with a KD-tree, stored as CSR.

``scipy.spatial.cKDTree.query_pairs`` gives every unordered pair within the
radius (points exactly at distance r are included). The pairs are
symmetrised and sorted by (row, column), so row i's neighbors are
``ids[offsets[i]:offsets[i + 1]]``, ascending, self excluded. The search
takes an (N, d) position array; the cloud is the driver's state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import NumericInputError, StructuralError


@dataclass(frozen=True)
class NeighborIndex:
    offsets: np.ndarray   # (N + 1,) start of each row's neighbors in ids
    ids: np.ndarray       # (E,) neighbor rows, ascending within each row, self excluded

    def neighbor_count(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def lists(self) -> tuple[np.ndarray, ...]:
        """Per point: its neighbor rows (views into ``ids``)."""
        return tuple(np.split(self.ids, self.offsets[1:-1]))


def build_index(positions: np.ndarray, radius: float) -> NeighborIndex:
    """CSR index of every pair of rows of ``positions`` within ``radius``."""
    if not radius > 0:
        raise StructuralError("search radius must be positive")
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2:
        raise StructuralError(f"positions must be an (N, d) array, got shape {pos.shape}")
    n = len(pos)
    if n == 0:
        raise StructuralError("cannot index an empty point set")
    if not np.all(np.isfinite(pos)):
        raise NumericInputError("positions contain non-finite entries")
    pairs = cKDTree(pos).query_pairs(radius, output_type="ndarray")
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.argsort(rows * n + cols)   # (row, col) order; keys are distinct
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return NeighborIndex(offsets=offsets, ids=cols[order])


def brute_force_neighbors(positions: np.ndarray, radius: float) -> list[np.ndarray]:
    """Reference O(N^2) all-pairs scan; oracle for the KD-tree index."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    out = []
    for i in range(n):
        diff = pos - pos[i]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        mask = (dist2 <= radius * radius)
        mask[i] = False
        out.append(np.flatnonzero(mask).astype(np.int64))
    return out
