"""Frozen reference for the grid query: the layer-by-layer walk that
scanned every cell once per layer, kept as an oracle for the CSR query.

knn_query below is the earlier implementation, copied unchanged. It reads
per-cell bucket lists, which BucketIndex rebuilds from an index's CSR
arrays. Tests require the library's knn_query to return the same
neighbors and QueryStats on every input.
"""

from __future__ import annotations

import numpy as np

from gridneighbors.core import Neighbor, keys_to_distances, ordering_keys
from gridneighbors.explore import STOP_MODES, QueryStats
from gridneighbors.grid import GridIndex


class BucketIndex:
    """A GridIndex seen through the earlier layout: one index array per cell."""

    def __init__(self, index: GridIndex):
        self.params = index.params
        self.coords = index.coords
        self.labels = index.labels
        self.metric = index.metric
        self.cell_array = index.cell_array
        self.buckets = np.split(index.order, index.offsets[1:-1])
        self.size = index.size
        self.dim = index.dim


def knn_query(
    index: GridIndex, q, k: int, mode: str = "heuristic"
) -> tuple[list[Neighbor], QueryStats]:
    """Select the k nearest training points to q by layered exploration.

    Modes:
      heuristic  -- stop once the buffer is full and a whole layer caused
                    no update;
      guaranteed -- stop only when l * min(width) exceeds the kth distance,
                    which lower-bounds the distance to anything beyond
                    layer l; results then match brute force exactly.

    Both modes terminate once the visited layers cover every non-empty
    cell. Returns neighbors sorted by (distance, point_index), plus stats.
    """
    if mode not in STOP_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {STOP_MODES}")
    q = np.asarray(q, dtype=float)
    if q.shape != (index.dim,):
        raise ValueError(f"dimension mismatch: query {q.shape}, index {index.dim}")
    n = index.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    metric = index.metric
    widths = index.params.widths
    center = np.floor(q / widths).astype(np.int64)
    # Chebyshev layer of every non-empty cell; cells beyond the max can
    # be skipped entirely, which also bounds the exploration for outlier
    # queries.
    cheb = np.abs(index.cell_array - center).max(axis=1)
    max_layer = int(cheb.max())
    min_width = float(widths.min())

    best_keys = np.empty(0)
    best_idx = np.empty(0, dtype=np.int64)
    cells_visited = 0
    points_scanned = 0
    l = 0
    while True:
        sel = np.nonzero(cheb == l)[0]  # lexicographic: cell_array is sorted
        changed = False
        if sel.size:
            cand = np.concatenate([index.buckets[j] for j in sel])
            keys = ordering_keys(q, index.coords[cand], metric)
            cells_visited += int(sel.size)
            points_scanned += int(cand.size)
            all_keys = np.concatenate([best_keys, keys])
            all_idx = np.concatenate([best_idx, cand])
            order = np.lexsort((all_idx, all_keys))[:k]
            new_keys = all_keys[order]
            new_idx = all_idx[order]
            changed = new_idx.size != best_idx.size or not np.array_equal(new_idx, best_idx)
            best_keys, best_idx = new_keys, new_idx
        layers_visited = l
        if best_idx.size == k:
            if mode == "heuristic" and not changed:
                break
            if mode == "guaranteed":
                bound = l * min_width
                bound_key = bound * bound if metric == "euclidean" else bound
                if bound_key > best_keys[-1]:
                    break
        if l >= max_layer:
            break
        l += 1

    dists = keys_to_distances(best_keys, metric)
    neighbors = [
        Neighbor(float(d), int(i), index.labels[int(i)])
        for d, i in zip(dists, best_idx)
    ]
    return neighbors, QueryStats(layers_visited, cells_visited, points_scanned)
