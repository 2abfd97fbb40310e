"""Fixed-radius neighbor search via uniform cell lists.

Cell size equals the search radius, so candidates for any query come from
the 3^d adjacent cells. Points exactly at distance r are included.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import StructuralError


@dataclass(frozen=True)
class NeighborIndex:
    search_radius: float
    lists: tuple[np.ndarray, ...]    # per point: sorted neighbor rows, self excluded

    def neighbor_count(self) -> np.ndarray:
        return np.array([len(l) for l in self.lists])


def build_index(cloud: PointCloud, radius: float) -> NeighborIndex:
    if radius <= 0:
        raise StructuralError("search radius must be positive")
    if cloud.n == 0:
        raise StructuralError("cannot index an empty cloud")
    pos = cloud.positions
    n, d = pos.shape
    origin = pos.min(axis=0)
    cells = np.floor((pos - origin) / radius).astype(np.int64)

    occupancy: dict[tuple, list[int]] = {}
    for i, key in enumerate(map(tuple, cells)):
        occupancy.setdefault(key, []).append(i)

    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    r2 = radius * radius
    lists = []
    for i in range(n):
        key = tuple(cells[i])
        candidates = []
        for off in offsets:
            bucket = occupancy.get(tuple(k + o for k, o in zip(key, off)))
            if bucket:
                candidates.extend(bucket)
        cand = np.array(candidates, dtype=np.int64)
        diff = pos[cand] - pos[i]
        mask = (np.einsum("ij,ij->i", diff, diff) <= r2) & (cand != i)
        lists.append(np.sort(cand[mask]))
    return NeighborIndex(
        search_radius=radius,
        lists=tuple(lists),
    )


def brute_force_neighbors(positions: np.ndarray, radius: float) -> list[np.ndarray]:
    """Reference O(N^2) all-pairs scan; oracle for the cell-list index."""
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
