"""Core domain types shared by every search strategy.

Labeled training points and the PointSet (a coords matrix plus labels)
that carries them between stages, neighbor records, distance metrics,
and the bounded top-k buffer that drives the exploration stopping rule.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

#: Supported distance metrics.
METRICS = ("euclidean", "manhattan", "chebyshev")


@dataclass(frozen=True)
class LabeledPoint:
    """One training observation: feature vector, output label, ordinal index.

    The index is the point's position in the training set and is used for
    deterministic tie-breaking whenever two candidates are equidistant.
    """

    coords: np.ndarray
    label: object
    index: int

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1:
            raise ValueError("coords must be a 1-d vector")
        if not np.all(np.isfinite(coords)):
            raise ValueError(f"point {self.index}: non-finite coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


class PointSet(Sequence):
    """n labeled points: an (n, d) float matrix and a list of n labels.

    Indexing builds LabeledPoint(coords[i], labels[i], i) on demand; the
    set-up functions read .coords and .labels and build no per-row object.
    """

    def __init__(self, coords, labels):
        # A read-only copy: an index built from the set shares this matrix.
        self.coords = np.array(coords, dtype=float)
        self.coords.flags.writeable = False
        self.labels = list(labels)
        if self.coords.ndim != 2:
            raise ValueError("coords must be an (n, d) matrix")
        if len(self.labels) != self.coords.shape[0]:
            raise ValueError("labels length must match the number of rows")
        bad = np.flatnonzero(~np.isfinite(self.coords).all(axis=1))
        if bad.size:
            raise ValueError(f"point {bad[0]}: non-finite coordinate")

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i) -> LabeledPoint:
        i = range(len(self))[i]  # wraps a negative index, raises IndexError past the end
        return LabeledPoint(self.coords[i], self.labels[i], i)


def points_from_arrays(coords, labels) -> PointSet:
    """Wrap an (n, d) feature matrix and a length-n label sequence."""
    return PointSet(coords, labels)


def as_points(data: Sequence[LabeledPoint]) -> PointSet:
    """data itself if it is a PointSet, else its points stacked once into one.

    Raises ValueError for an empty dataset or for points of mixed dimensions.
    """
    points = data if isinstance(data, PointSet) else list(data)
    if len(points) == 0:
        raise ValueError("empty dataset")
    if isinstance(points, PointSet):
        return points
    dims = {p.dim for p in points}
    if len(dims) != 1:
        raise ValueError(f"points have mixed dimensions: {sorted(dims)}")
    return PointSet(np.stack([p.coords for p in points]), [p.label for p in points])


@dataclass(frozen=True)
class Neighbor:
    """A selected neighbor: its distance to the query, training index, label."""

    distance: float
    point_index: int
    label: object = None

    @property
    def key(self) -> tuple[float, int]:
        return (self.distance, self.point_index)


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def ordering_keys(q: np.ndarray, pts: np.ndarray, metric: str) -> np.ndarray:
    """Per-row ordering keys for distances from q to the rows of pts.

    Euclidean keys are squared distances: ordering is unchanged and the
    square roots are deferred until results are reported.
    """
    diff = pts - q
    if metric == "euclidean":
        return np.einsum("ij,ij->i", diff, diff)
    if metric == "manhattan":
        return np.abs(diff).sum(axis=1)
    if metric == "chebyshev":
        return np.abs(diff).max(axis=1)
    _check_metric(metric)
    raise AssertionError  # unreachable


def keys_to_distances(keys: np.ndarray, metric: str) -> np.ndarray:
    """Convert ordering keys back to true metric distances."""
    return np.sqrt(keys) if metric == "euclidean" else keys


def distance(a, b, metric: str = "euclidean") -> float:
    """Metric distance between two coordinate vectors.

    Raises ValueError on dimension mismatch or unknown metric.
    """
    _check_metric(metric)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    key = ordering_keys(a, b.reshape(1, -1), metric)[0]
    return float(keys_to_distances(key, metric))


class NeighborBuffer:
    """Bounded buffer keeping the k smallest candidates seen so far.

    Ordering is lexicographic on (distance, point_index), so ties are
    broken toward the lower training index. Internally a max-heap: the
    root is the current worst retained candidate.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._heap: list[tuple[float, int, object]] = []  # (-distance, -index, label)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) == self.capacity

    def worst_key(self) -> tuple[float, int]:
        """(distance, point_index) of the current worst retained entry."""
        if not self._heap:
            raise IndexError("empty buffer")
        nd, ni, _ = self._heap[0]
        return (-nd, -ni)

    def push(self, cand: Neighbor) -> bool:
        """Offer a candidate; returns True iff the buffer contents changed.

        The True/False outcome is the "update" signal consumed by the
        exploration stopping rule.
        """
        item = (-cand.distance, -cand.point_index, cand.label)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, item)
            return True
        if cand.key < self.worst_key():
            heapq.heapreplace(self._heap, item)
            return True
        return False

    def push_all(self, cands: Iterable[Neighbor]) -> bool:
        """Push a batch; True iff any push was accepted."""
        changed = False
        for cand in cands:
            changed |= self.push(cand)
        return changed

    def neighbors(self) -> list[Neighbor]:
        """Retained entries sorted ascending by (distance, point_index)."""
        items = sorted(((-nd, -ni, lab) for nd, ni, lab in self._heap))
        return [Neighbor(d, i, lab) for d, i, lab in items]
