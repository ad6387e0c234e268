"""Core domain types shared by every search strategy.

The PointSet (a coords matrix plus a label array), the one point
container that every set-up stage takes and returns, and LabeledPoint,
its row view; neighbor records, distance metrics, the query check, and
the bounded top-k buffer in which the grid walk and the kd-tree select
their neighbors.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Supported distance metrics.
METRICS = ("euclidean", "manhattan", "chebyshev")

#: dtype kinds a label array may have: bool, signed and unsigned integer,
#: float and str. PointSet and load_index both hold labels to them.
LABEL_KINDS = "biufU"


@dataclass(frozen=True, eq=False)
class LabeledPoint:
    """Row i of a PointSet: its read-only coords row, label and index i.

    The index is the point's position in the training set and is used for
    deterministic tie-breaking whenever two candidates are equidistant.
    Two rows are equal when their indices, labels and coords are equal.
    """

    coords: np.ndarray
    label: object
    index: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledPoint):
            return NotImplemented
        return (self.index, self.label) == (other.index, other.label) and np.array_equal(self.coords, other.coords)


class PointSet(Sequence):
    """n >= 1 labeled points: an (n, d) finite float matrix, d >= 1, and n labels.

    labels is a read-only 1-D array, all numbers or all strings. Indexing
    builds LabeledPoint(coords[i], labels[i].item(), i) on demand.
    """

    def __init__(self, coords, labels, *, _copy=True):
        # Read-only arrays: an index built from the set shares both. They
        # are copies, so the caller's own stay writeable, unless a set-up
        # stage hands over (_copy=False) the arrays it has just built.
        copy = True if _copy else None
        self.coords = np.array(coords, dtype=float, copy=copy)
        self.coords.flags.writeable = False
        self.labels = np.array(labels, copy=copy)
        self.labels.flags.writeable = False
        _check_labels(self.labels)
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
        _check_finite(self.coords)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i) -> LabeledPoint:
        i = range(len(self))[i]  # wraps a negative index, raises IndexError past the end
        return LabeledPoint(self.coords[i], self.labels[i].item(), i)


def _check_finite(coords: np.ndarray) -> None:
    """Raise ValueError naming the first row of coords with a non-finite entry.

    One whole-array test; the rows are searched only when it fails.
    PointSet and load_index both hold coordinates to this rule.
    """
    if not np.isfinite(coords).all():
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))[0]
        raise ValueError(f"point {bad}: non-finite coordinate")


def _check_labels(labels: np.ndarray) -> None:
    """Raise ValueError unless labels is 1-D, of a LABEL_KINDS dtype and free of NaN.

    A vote counts each NaN as a class of its own. PointSet and load_index
    both hold labels to this rule.
    """
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    if labels.dtype.kind not in LABEL_KINDS:
        raise ValueError(f"labels must be numbers or strings, got dtype {labels.dtype}")
    if labels.dtype.kind == "f" and np.isnan(labels).any():
        raise ValueError(f"point {np.flatnonzero(np.isnan(labels))[0]}: NaN label")


def points_from_arrays(coords, labels) -> PointSet:
    """Wrap an (n, d) feature matrix and n labels, all numbers or all strings."""
    return PointSet(coords, labels)


@dataclass(frozen=True, init=False)
class Neighbor:
    """A selected neighbor: its distance to the query, training index, label."""

    distance: float
    point_index: int
    label: object = None

    def __init__(self, distance: float, point_index: int, label: object = None) -> None:
        # A frozen dataclass's generated __init__ sets each field by object.__setattr__, at twice this cost.
        fields = self.__dict__
        fields["distance"], fields["point_index"], fields["label"] = distance, point_index, label

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
    return gap_keys(np.subtract(pts, q, order="F"), metric)


def gap_keys(gaps: np.ndarray, metric: str) -> np.ndarray:
    """Row keys of a column-major (m, d) matrix of per-dimension gaps, which it overwrites."""
    if metric == "euclidean":
        gaps *= gaps
    else:
        np.abs(gaps, out=gaps)
    if metric == "chebyshev":
        return np.maximum.reduce(gaps, axis=1)
    if gaps.shape[0] == 1:
        return np.add.accumulate(gaps[0])[-1:]
    return np.add.reduce(gaps, axis=1)


def keys_to_distances(keys: np.ndarray, metric: str) -> np.ndarray:
    """Convert ordering keys back to true metric distances."""
    return np.sqrt(keys) if metric == "euclidean" else keys


def distances_to_keys(dists, metric: str):
    """Convert distances (or distance bounds) to ordering keys."""
    return dists * dists if metric == "euclidean" else dists


def _check_int(value, name: str) -> int:
    try:
        if not isinstance(value, bool):  # operator.index takes True as 1
            return operator.index(value)  # accepts numpy integers, not 2.5, "3" or np.True_
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def check_query(q, dim: int, k: int, n: int) -> np.ndarray:
    """q as a float vector, checked against an index of n points in dim dimensions.

    Raises TypeError unless k is an integer, and ValueError unless q has
    dim finite coordinates and 1 <= k <= n.
    """
    k = _check_int(k, "k")
    q = np.asarray(q, dtype=float)
    if q.shape != (dim,):
        raise ValueError(f"dimension mismatch: query {q.shape}, index {dim}")
    if not all(map(math.isfinite, q.tolist())):
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
        capacity = _check_int(capacity, "k")
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
        the buffer are mapped through lookup. The True/False outcome is
        the "update" signal of the heuristic stopping rule.
        """
        if isinstance(idx, slice):
            idx, lookup = lookup[idx], None  # a view: nothing is mapped yet
        k = self.capacity
        if self.full:
            keep = keys <= self.keys[-1]  # a worse key cannot displace the kth entry
            if not keep.any():
                return False
            keys, idx = keys[keep], idx[keep]
        if keys.size > 8 * k:
            # Nor can a key worse than k of the new ones. Every tie of their
            # kth key survives, so the lexsort still breaks ties toward the
            # lower index. Up to 8k candidates, one lexsort of all costs less.
            keep = keys <= np.partition(keys, k - 1)[k - 1]
            keys, idx = keys[keep], idx[keep]
        if lookup is not None:
            idx = lookup[idx]
        if self.idx.size:
            keys = np.concatenate([self.keys, keys])
            idx = np.concatenate([self.idx, idx])
        top = np.lexsort((idx, keys))[:k]
        new_idx = idx[top]
        changed = new_idx.size != self.idx.size or bool((new_idx != self.idx).any())
        self.keys, self.idx = keys[top], new_idx
        self.full = new_idx.size == k
        return changed

    def labelled(self, metric: str, labels: np.ndarray) -> list[Neighbor]:
        """Retained entries with their keys as metric distances and labels[index]."""
        dists = keys_to_distances(self.keys, metric).tolist()
        return list(map(Neighbor, dists, self.idx.tolist(), labels[self.idx].tolist()))
