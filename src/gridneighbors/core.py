"""Core domain types shared by every search strategy.

The PointSet (a coords matrix plus a label array), the one point
container that every set-up stage takes and returns, and LabeledPoint,
its row view; neighbor records, distance metrics, the query check, and
the bounded top-k buffer in which the grid walk and the kd-tree select
their neighbors.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Supported distance metrics.
METRICS = ("euclidean", "manhattan", "chebyshev")

#: dtype kinds a label array may have: bool, signed and unsigned integer,
#: float and str. PointSet and load_index both hold labels to them.
LABEL_KINDS = "biufU"


@dataclass(frozen=True)
class LabeledPoint:
    """Row i of a PointSet: its read-only coords row, label and index i.

    The index is the point's position in the training set and is used for
    deterministic tie-breaking whenever two candidates are equidistant.
    """

    coords: np.ndarray
    label: object
    index: int


class PointSet(Sequence):
    """n >= 1 labeled points: an (n, d) finite float matrix, d >= 1, and n labels.

    labels is a read-only 1-D array, all numbers or all strings. Indexing
    builds LabeledPoint(coords[i], labels[i].item(), i) on demand.
    """

    def __init__(self, coords, labels):
        # Read-only copies: an index built from the set shares both arrays.
        self.coords = np.array(coords, dtype=float)
        self.coords.flags.writeable = False
        self.labels = np.array(labels)
        self.labels.flags.writeable = False
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D sequence")
        if self.labels.dtype.kind not in LABEL_KINDS:
            raise ValueError(f"labels must be numbers or strings, got dtype {self.labels.dtype}")
        # numpy turns numbers among strings into strings without a word.
        if self.labels.dtype.kind == "U" and not isinstance(labels, np.ndarray):
            if not all(isinstance(v, str) for v in labels):
                raise ValueError("labels mix strings and non-strings")
        if self.coords.ndim != 2:
            raise ValueError("coords must be an (n, d) matrix")
        if self.coords.shape[0] == 0:
            raise ValueError("empty dataset")
        if self.coords.shape[1] == 0:
            raise ValueError("coords have no feature columns")
        if len(self.labels) != self.coords.shape[0]:
            raise ValueError("labels length must match the number of rows")
        bad = np.flatnonzero(~np.isfinite(self.coords).all(axis=1))
        if bad.size:
            raise ValueError(f"point {bad[0]}: non-finite coordinate")

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i) -> LabeledPoint:
        i = range(len(self))[i]  # wraps a negative index, raises IndexError past the end
        return LabeledPoint(self.coords[i], self.labels[i].item(), i)


def points_from_arrays(coords, labels) -> PointSet:
    """Wrap an (n, d) feature matrix and n labels, all numbers or all strings."""
    return PointSet(coords, labels)


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

    A row's key depends only on that row and q, not on the layout of pts or
    on the other rows: each row is summed left to right. numpy adds pairwise
    only along the fast axis in memory, so the differences are column-major
    and a lone row, which is the fast axis, is summed by accumulate.
    """
    _check_metric(metric)
    diff = np.subtract(pts, q, order="F")
    if metric == "euclidean":
        diff *= diff
    else:
        np.abs(diff, out=diff)
    if metric == "chebyshev":
        return diff.max(axis=1)
    if diff.shape[0] == 1:
        return np.add.accumulate(diff[0])[-1:]
    return diff.sum(axis=1)


def keys_to_distances(keys: np.ndarray, metric: str) -> np.ndarray:
    """Convert ordering keys back to true metric distances."""
    return np.sqrt(keys) if metric == "euclidean" else keys


def distances_to_keys(dists, metric: str):
    """Convert distances (or distance bounds) to ordering keys."""
    return dists * dists if metric == "euclidean" else dists


def _check_k(k) -> int:
    try:
        return operator.index(k)  # accepts numpy integers, not 2.5 or "3"
    except TypeError:
        raise TypeError(f"k must be an integer, got {k!r}") from None


def check_query(q, dim: int, k: int, n: int) -> np.ndarray:
    """q as a float vector, checked against an index of n points in dim dimensions.

    Raises TypeError unless k is an integer, and ValueError unless q has
    dim finite coordinates and 1 <= k <= n.
    """
    k = _check_k(k)
    q = np.asarray(q, dtype=float)
    if q.shape != (dim,):
        raise ValueError(f"dimension mismatch: query {q.shape}, index {dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"query has a non-finite coordinate: {q}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    return q


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

    keys and idx hold the retained candidates sorted lexicographically by
    (key, index), so ties are broken toward the lower index and keys[-1]
    is the kth key once the buffer is full. The grid walk and the kd-tree
    select their top k here; brute force sorts all keys instead and so
    stays an independent oracle for both.
    """

    def __init__(self, capacity: int):
        capacity = _check_k(capacity)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.keys = np.empty(0)
        self.idx = np.empty(0, dtype=np.int64)
        self.full = False  # a plain attribute: the grid walk reads it twice per layer

    def __len__(self) -> int:
        return self.idx.size

    def offer(self, keys: np.ndarray, idx, lookup: np.ndarray | None = None) -> bool:
        """Offer candidates; returns True iff the buffer contents changed.

        The candidates' indices are idx, or lookup[idx] when lookup is
        given; idx may then be a slice. Only the candidates that can enter
        a full buffer are mapped through lookup. The True/False outcome is
        the "update" signal of the heuristic stopping rule.
        """
        if self.full:
            keep = keys <= self.keys[-1]  # a worse key cannot displace the kth entry
            if not keep.any():
                return False
            keys = keys[keep]
            if isinstance(idx, slice):
                idx, lookup = lookup[idx][keep], None  # lookup[idx] is a view
            else:
                idx = idx[keep]
        if lookup is not None:
            idx = lookup[idx]
        all_keys = np.concatenate([self.keys, keys])
        all_idx = np.concatenate([self.idx, idx])
        k = self.capacity
        if all_keys.size > k:
            # Every tie of the kth key survives, so the lexsort still breaks
            # ties toward the lower index.
            keep = all_keys <= np.partition(all_keys, k - 1)[k - 1]
            all_keys, all_idx = all_keys[keep], all_idx[keep]
        top = np.lexsort((all_idx, all_keys))[:k]
        new_idx = all_idx[top]
        changed = new_idx.size != self.idx.size or not np.array_equal(new_idx, self.idx)
        self.keys, self.idx = all_keys[top], new_idx
        self.full = new_idx.size == k
        return changed

    def push(self, cand: Neighbor) -> bool:
        """Offer one candidate, its distance as the key; True iff the contents changed."""
        return self.offer(np.array([cand.distance]), np.array([cand.point_index]))

    def neighbors(self) -> list[Neighbor]:
        """Retained entries, (key, index) ascending, as unlabelled Neighbors."""
        return [Neighbor(d, i) for d, i in zip(self.keys.tolist(), self.idx.tolist())]

    def labelled(self, metric: str, labels: np.ndarray) -> list[Neighbor]:
        """Retained entries with their keys as metric distances and labels[index]."""
        dists = keys_to_distances(self.keys, metric).tolist()
        return list(map(Neighbor, dists, self.idx.tolist(), labels[self.idx].tolist()))
