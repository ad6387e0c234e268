"""Exact baselines: brute-force linear scan and a kd-tree.

Both return exactly the k nearest points under (distance, point_index)
ordering; the brute-force scan doubles as the correctness oracle for
every other strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    LabeledPoint,
    Neighbor,
    NeighborBuffer,
    _check_metric,
    as_points,
    keys_to_distances,
    ordering_keys,
)


@dataclass(frozen=True)
class BruteIndex:
    coords: np.ndarray
    labels: Sequence[object]
    metric: str

    @property
    def size(self) -> int:
        return self.coords.shape[0]


def brute_build(data: Sequence[LabeledPoint], metric: str = "euclidean") -> BruteIndex:
    _check_metric(metric)
    points = as_points(data)
    return BruteIndex(points.coords, points.labels, metric)


def brute_knn(index: BruteIndex, q, k: int) -> list[Neighbor]:
    """Exact k nearest by full scan, sorted by (distance, point_index)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (index.coords.shape[1],):
        raise ValueError("dimension mismatch")
    n = index.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    keys = ordering_keys(q, index.coords, index.metric)
    order = np.lexsort((np.arange(n), keys))[:k]
    dists = keys_to_distances(keys[order], index.metric)
    return [
        Neighbor(float(d), int(i), index.labels[int(i)])
        for d, i in zip(dists, order)
    ]


@dataclass(slots=True)
class _Split:
    """Inner kd-tree node; a leaf is the array of its point indices."""

    dim: int
    threshold: float
    left: object
    right: object


class KdTree:
    """Median-split kd-tree with leaf buckets; queries are exact."""

    def __init__(self, data: Sequence[LabeledPoint], metric: str = "euclidean", leaf_size: int = 16):
        _check_metric(metric)
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        points = as_points(data)
        self.coords, self.labels = points.coords, points.labels
        self.metric = metric
        self.leaf_size = leaf_size
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


def kdtree_build(data: Sequence[LabeledPoint], metric: str = "euclidean", leaf_size: int = 16) -> KdTree:
    return KdTree(data, metric, leaf_size)


def kdtree_knn(tree: KdTree, q, k: int) -> list[Neighbor]:
    """Exact k nearest via bounding-distance pruning; equals brute_knn."""
    q = np.asarray(q, dtype=float)
    if q.shape != (tree.coords.shape[1],):
        raise ValueError("dimension mismatch")
    if not 1 <= k <= tree.size:
        raise ValueError(f"k={k} out of range [1, {tree.size}]")
    buf = NeighborBuffer(k)  # holds ordering keys, not final distances

    def visit(node) -> None:
        if isinstance(node, np.ndarray):
            keys = ordering_keys(q, tree.coords[node], tree.metric)
            for key, i in zip(keys, node):
                buf.push(Neighbor(float(key), int(i)))
            return
        gap = float(q[node.dim] - node.threshold)
        near, far = (node.left, node.right) if gap <= 0 else (node.right, node.left)
        visit(near)
        bound = gap * gap if tree.metric == "euclidean" else abs(gap)
        # <= keeps exactness for ties resolved by point index.
        if not buf.full or bound <= buf.worst_key()[0]:
            visit(far)

    visit(tree.root)
    found = buf.neighbors()
    dists = keys_to_distances(np.array([nb.distance for nb in found]), tree.metric).tolist()
    return [Neighbor(d, nb.point_index, tree.labels[nb.point_index]) for d, nb in zip(dists, found)]
