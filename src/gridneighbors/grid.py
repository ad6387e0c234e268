"""Virtual grid fitting and the cell -> points index (training phase).

Cell widths are fitted per dimension by splitting the data range into the
largest number of equal bins that leaves no bin empty; points are then
hashed to integer cell ids by floor division of raw coordinates by the
fitted widths. The index stores the non-empty cells in CSR layout: sorted
cell ids, the point indices sorted by cell, and one start offset per cell
(the cell-sorted array with cell start offsets of S. Green, "Particle
Simulation using CUDA", NVIDIA 2010), which the query also reads the
coordinates in, built on the first query. The binary file holds these and
the PointSet's arrays as they are; loading rebuilds and converts nothing.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LABEL_KINDS, METRICS, PointSet, _check_metric

CellId = tuple[int, ...]


@dataclass(frozen=True)
class GridParams:
    """Fitted grid geometry: per-dimension cell widths and split counts.

    origin records the per-dimension training minimum; it is reporting
    metadata only (hashing anchors at absolute zero).
    """

    widths: np.ndarray
    origin: np.ndarray
    splits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "widths", np.asarray(self.widths, dtype=float))
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "splits", np.asarray(self.splits, dtype=np.int64))
        if not np.all((self.widths > 0) & np.isfinite(self.widths)):
            raise ValueError("all cell widths must be positive and finite")

    @property
    def dim(self) -> int:
        return self.widths.shape[0]


def _bin_of(values: np.ndarray, lo: float, span: float, s: int) -> np.ndarray:
    # Right edge is closed: the maximum value belongs to the last bin.
    return np.minimum(np.floor((values - lo) * s / span), s - 1)


def _max_splits_1d(values: np.ndarray) -> tuple[int, float]:
    """Largest split count s leaving no bin of [lo, hi] empty, and the width.

    A bin can only go empty inside a gap between consecutive distinct
    values, and only when gap * s > span, so each candidate s is checked
    against the few largest gaps instead of rehashing every value.
    """
    distinct = np.unique(values)
    if distinct.size == 1:
        return 1, 1.0  # constant feature: any positive width works
    lo = float(distinct[0])
    span = float(distinct[-1] - distinct[0])
    gaps = np.diff(distinct)
    max_gap = float(gaps.max())
    # Occupancy is guaranteed to fail once max_gap * s / span >= 2.
    s_hi = min(distinct.size, int(np.ceil(2.0 * span / max_gap)))
    gaps_asc = np.sort(gaps)
    by_size = np.argsort(gaps, kind="stable")[::-1]
    left = distinct[:-1][by_size]
    right = distinct[1:][by_size]
    for s in range(s_hi, 1, -1):
        cnt = gaps.size - int(np.searchsorted(gaps_asc, span / s, side="right"))
        if cnt == 0:
            return s, span / s
        lb = _bin_of(left[:cnt], lo, span, s)
        rb = _bin_of(right[:cnt], lo, span, s)
        if (rb - lb).max() <= 1:
            return s, span / s
    return 1, span


def fit_cell_measurements(data: PointSet) -> GridParams:
    """Fit per-dimension cell widths from the training data.

    Each dimension independently gets the largest split count that keeps
    every bin of its value range occupied; the cell width is range/splits.
    Constant dimensions fall back to a single split of width 1.
    """
    coords = data.coords
    d = coords.shape[1]
    widths = np.empty(d)
    splits = np.empty(d, dtype=np.int64)
    for j in range(d):
        splits[j], widths[j] = _max_splits_1d(coords[:, j])
    return GridParams(widths=widths, origin=coords.min(axis=0), splits=splits)


def hash_cell(p, params: GridParams) -> CellId:
    """Cell id of a point: per-dimension floor division by the cell width.

    Floor is toward negative infinity, so points left of the origin land
    in distinct negative cells. Raises ValueError, as build and knn_query
    do, for a point whose cell id leaves +-2**62 or is not finite.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (params.dim,):
        raise ValueError(f"dimension mismatch: point {p.shape}, grid {params.dim}")
    return tuple(_cell_ids(p, params.widths).tolist())


def _cell_ids(x: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """floor(x / widths) as int64, for one point or a matrix of points.

    Raises ValueError when an id leaves +-2**62. Within that bound the cast
    cannot overflow, and neither can the difference of two ids, which the
    query's layer arithmetic takes.
    """
    ids = np.floor(x / widths)
    if not np.all(np.abs(ids) < 2.0**62):
        raise ValueError("coordinates too far from the origin: a cell id leaves +-2**62")
    return ids.astype(np.int64)


@dataclass(eq=False)
class GridIndex:
    """Immutable grid index over a training set, in CSR layout.

    CSR ("compressed sparse row") is three arrays: cell_array holds the ids
    of the non-empty cells, sorted lexicographically; order holds the point
    indices sorted by cell, input order kept inside each cell; and the
    points of cell i are order[offsets[i]:offsets[i + 1]]. The query walks
    these arrays directly, save_index writes them as they are, and
    cell_points reads a cell's points from them; there is no other view of
    the cells. The query reads cell i's coordinates as the contiguous
    columns offsets[i]:offsets[i + 1] of cell_coords, which its first call
    builds. coords and labels are the PointSet's read-only arrays.
    """

    params: GridParams
    coords: np.ndarray
    labels: np.ndarray
    metric: str
    cell_array: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        # Bounding box of the non-empty cells: a query's first and last
        # occupied layers are bounded by its Chebyshev distance to it.
        self.cell_lo = self.cell_array.min(axis=0)
        self.cell_hi = self.cell_array.max(axis=0)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @cached_property
    def cell_coords(self) -> np.ndarray:
        """Read-only (d, n) coords in cell order: column j is coords[order[j]]."""
        block = self.coords.T.take(self.order, axis=1)
        block.flags.writeable = False
        return block


def build(data: PointSet, metric: str = "euclidean", params: GridParams | None = None) -> GridIndex:
    """Build the grid index: fit widths, hash every point into its cell.

    Points keep their input order inside each cell. Pass explicit params
    to skip fitting (useful for constructed scenarios).
    """
    _check_metric(metric)
    if params is None:
        params = fit_cell_measurements(data)
    elif params.dim != data.coords.shape[1]:
        raise ValueError("params dimension does not match the data")
    n, d = data.coords.shape
    ids = _cell_ids(data.coords, params.widths)
    # Sort rows lexicographically by cell id, then by original index so
    # each cell keeps input order.
    keys = (np.arange(n),) + tuple(ids[:, j] for j in range(d - 1, -1, -1))
    order = np.lexsort(keys)
    sorted_ids = ids[order]
    new_cell = np.any(sorted_ids[1:] != sorted_ids[:-1], axis=1)
    starts = np.flatnonzero(new_cell) + 1
    cell_array = sorted_ids[np.concatenate(([0], starts))]
    offsets = np.concatenate(([0], starts, [n])).astype(np.int64)
    return GridIndex(params, data.coords, data.labels, metric, cell_array, order, offsets)


def cell_points(index: GridIndex, cell) -> list[int]:
    """Point indices stored in a cell, in input order; empty list for absent cells.

    Raises ValueError, as hash_cell does, for a cell of the wrong length.
    A cell with a non-integer coordinate matches no cell.
    """
    cell = np.asarray(cell)  # no cast: ints compare exactly, a fraction matches nothing
    if cell.shape != (index.dim,):
        raise ValueError(f"dimension mismatch: cell {cell.shape}, grid {index.dim}")
    i = np.flatnonzero((index.cell_array == cell).all(axis=1))
    return index.order[index.offsets[i[0]] : index.offsets[i[0] + 1]].tolist() if i.size else []


# ---------------------------------------------------------------------------
# Serialization: versioned binary dump that round-trips byte-identically.

_MAGIC = b"GHNIDX\x01\n"
_ARRAY_FIELDS = ("widths", "origin", "splits", "coords", "labels", "cell_ids", "offsets", "order")
# dtype kinds each array may have, checked before any is read; labels as in PointSet.
_KINDS = {
    "widths": "f",
    "origin": "f",
    "splits": "i",
    "coords": "f",
    "labels": LABEL_KINDS,
    "cell_ids": "i",
    "offsets": "i",
    "order": "i",
}


def save_index(index: GridIndex, path) -> None:
    """Write the index to a deterministic binary file.

    Layout: magic, length-prefixed JSON header (metric plus array dtypes
    and shapes), then the raw bytes of each array in a fixed order. The
    offsets and order arrays are the index's CSR arrays, written as is.
    save -> load -> save reproduces the file byte for byte.
    """
    arrays = {
        "widths": index.params.widths,
        "origin": index.params.origin,
        "splits": index.params.splits,
        "coords": index.coords,
        "labels": index.labels,
        "cell_ids": index.cell_array,
        "offsets": index.offsets,
        "order": index.order,
    }
    header = {
        "version": 1,
        "metric": index.metric,
        "arrays": {
            name: {"dtype": arrays[name].dtype.str, "shape": list(arrays[name].shape)}
            for name in _ARRAY_FIELDS
        },
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in _ARRAY_FIELDS:
            fh.write(np.ascontiguousarray(arrays[name]).tobytes())


def load_index(path) -> GridIndex:
    """Read an index written by save_index.

    The file is checked before it is used: every array must be complete,
    of its dtype kind and shaped as the header and the other arrays say,
    offsets must rise strictly from 0 to n, order must be a permutation of
    0..n-1 and cell ids must be strictly increasing. Any change to the
    order region breaks the permutation; a change to the offsets region is
    caught when it breaks the strict rise. Coordinates and labels are not
    checksummed; they come back read-only.
    Raises ValueError naming the path for a truncated or corrupt file.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a grid index file")
        head = fh.read(4)
        if len(head) != 4:
            raise ValueError(f"{path}: truncated header")
        (blob_len,) = struct.unpack("<I", head)
        try:
            header = json.loads(fh.read(blob_len))
            if header.get("version") != 1:
                raise ValueError("unsupported index version")
            metric = header["metric"]
            layout = [
                (name, np.dtype(header["arrays"][name]["dtype"]), tuple(header["arrays"][name]["shape"]))
                for name in _ARRAY_FIELDS
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad header: {exc}") from None
        for name, dtype, shape in layout:
            if dtype.kind not in _KINDS[name]:
                raise ValueError(f"{path}: {name} has dtype {dtype}, expected a kind in {_KINDS[name]!r}")
            if not all(type(v) is int and v >= 0 for v in shape):
                raise ValueError(f"{path}: corrupt header entry for {name}")
        if metric not in METRICS:
            raise ValueError(f"{path}: unknown metric {metric!r}")
        sizes = [dtype.itemsize * math.prod(shape) for _, dtype, shape in layout]
        if os.fstat(fh.fileno()).st_size != fh.tell() + sum(sizes):
            raise ValueError(f"{path}: file size does not match its header (truncated?)")
        arrays = {}
        for name, dtype, shape in layout:
            arrays[name] = np.empty(shape, dtype=dtype)
            if fh.readinto(arrays[name]) != arrays[name].nbytes:
                raise ValueError(f"{path}: truncated in the {name} array")
    for name in ("coords", "labels"):  # read-only, as in the PointSet they were saved from
        arrays[name].flags.writeable = False
    offsets, order = _check_arrays(path, arrays)
    try:
        params = GridParams(arrays["widths"], arrays["origin"], arrays["splits"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return GridIndex(
        params, arrays["coords"], arrays["labels"], metric, arrays["cell_ids"], order, offsets
    )


def _check_arrays(path, arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """Structural checks of a loaded index, in O(n + C*d).

    Returns the offsets and order arrays as int64, the dtype the query uses.
    """
    coords, cells = arrays["coords"], arrays["cell_ids"]
    if coords.ndim != 2 or cells.ndim != 2 or coords.size == 0:
        raise ValueError(f"{path}: coords and cell_ids must be non-empty matrices")
    (n, d), c = coords.shape, cells.shape[0]
    expected = {
        "widths": (d,),
        "origin": (d,),
        "splits": (d,),
        "coords": (n, d),
        "labels": (n,),
        "cell_ids": (c, d),
        "offsets": (c + 1,),
        "order": (n,),
    }
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")
    offsets = arrays["offsets"].astype(np.int64, copy=False)
    if offsets[0] != 0 or offsets[-1] != n or np.any(offsets[1:] <= offsets[:-1]):
        raise ValueError(f"{path}: offsets do not rise strictly from 0 to {n}")
    order = arrays["order"].astype(np.int64, copy=False)
    if order.min() < 0 or order.max() >= n or np.any(np.bincount(order, minlength=n) != 1):
        raise ValueError(f"{path}: order is not a permutation of 0..{n - 1}")
    prev, nxt = cells[:-1], cells[1:]
    differ = prev != nxt
    first = differ.argmax(axis=1)
    rows = np.arange(c - 1)
    if not differ.any(axis=1).all() or np.any(nxt[rows, first] < prev[rows, first]):
        raise ValueError(f"{path}: cell ids are not strictly increasing")
    return offsets, order
