"""Exact baselines: brute-force linear scan and a kd-tree.

Both return exactly the k nearest points under (distance, point_index)
ordering. The kd-tree selects them in core.NeighborBuffer, as the grid
query does; the brute-force scan sorts all n keys and doubles as the
correctness oracle for every other strategy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Neighbor,
    NeighborBuffer,
    PointSet,
    _check_int,
    _check_metric,
    check_query,
    distances_to_keys,
    keys_to_distances,
    ordering_keys,
)


@dataclass(frozen=True)
class BruteIndex:
    coords: np.ndarray
    labels: np.ndarray
    metric: str

    @property
    def size(self) -> int:
        return self.coords.shape[0]


def brute_build(data: PointSet, metric: str = "euclidean") -> BruteIndex:
    _check_metric(metric)
    return BruteIndex(data.coords, data.labels, metric)


def brute_knn(index: BruteIndex, q, k: int) -> list[Neighbor]:
    """Exact k nearest by full scan, sorted by (distance, point_index)."""
    q = check_query(q, index.coords.shape[1], k, index.size)
    # A full sort, not the top-k buffer the other searches share: the
    # oracle stays independent of the code it checks.
    keys = ordering_keys(q, index.coords, index.metric)
    order = np.lexsort((np.arange(index.size), keys))[:k]
    dists = keys_to_distances(keys[order], index.metric).tolist()
    return list(map(Neighbor, dists, order.tolist(), index.labels[order].tolist()))


@dataclass(slots=True)
class _Split:
    """Inner kd-tree node; a leaf is the array of its point indices."""

    dim: int
    threshold: float
    left: object
    right: object


class KdTree:
    """Median-split kd-tree with leaf buckets; queries are exact."""

    def __init__(self, data: PointSet, metric: str = "euclidean", leaf_size: int = 16):
        _check_metric(metric)
        self.leaf_size = _check_int(leaf_size, "leaf_size")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.coords, self.labels = data.coords, data.labels
        self.metric = metric
        self.root = self._build(np.arange(self.coords.shape[0]))

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    def _build(self, idx: np.ndarray):
        if idx.size <= self.leaf_size:
            return idx
        sub = self.coords[idx]
        spread = sub.max(axis=0) - sub.min(axis=0)
        dim = int(np.argmax(spread))
        if spread[dim] == 0:  # all points identical
            return idx
        threshold = float(np.median(sub[:, dim]))
        mask = sub[:, dim] <= threshold
        if mask.all() or not mask.any():
            # Median coincides with an extreme; midpoint keeps both sides
            # non-empty because the spread is positive.
            threshold = float(sub[:, dim].min() + spread[dim] / 2)
            mask = sub[:, dim] <= threshold
        return _Split(dim, threshold, self._build(idx[mask]), self._build(idx[~mask]))


def kdtree_build(data: PointSet, metric: str = "euclidean", leaf_size: int = 16) -> KdTree:
    return KdTree(data, metric, leaf_size)


def kdtree_knn(tree: KdTree, q, k: int) -> list[Neighbor]:
    """Exact k nearest via bounding-distance pruning; equals brute_knn."""
    q = check_query(q, tree.coords.shape[1], k, tree.size)
    buf = NeighborBuffer(k)

    def visit(node) -> None:
        if isinstance(node, np.ndarray):
            buf.offer(ordering_keys(q, tree.coords[node], tree.metric), node)
            return
        gap = float(q[node.dim] - node.threshold)
        near, far = (node.left, node.right) if gap <= 0 else (node.right, node.left)
        visit(near)
        # <= keeps exactness for ties resolved by point index.
        if not buf.full or distances_to_keys(abs(gap), tree.metric) <= buf.keys[-1]:
            visit(far)

    visit(tree.root)
    return buf.labelled(tree.metric, tree.labels)
