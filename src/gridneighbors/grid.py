"""Virtual grid fitting and the cell -> points index (training phase).

Cell widths are fitted per dimension by splitting the data range into
the largest number of equal bins that leaves no bin empty; points are
then hashed to integer cell ids by floor division of raw coordinates by
the fitted widths. The fit sorts only the gaps wide enough to empty a
bin and tests each split count against its widest gaps first; build
sorts the cell ids less their box corner as the narrowest integers that
hold the box (numpy radix-sorts 16-bit keys). The index stores the
non-empty cells in CSR layout: sorted cell ids, the point indices sorted
by cell, and one start offset per cell (the cell-sorted array with cell
start offsets of S. Green, "Particle Simulation using CUDA", NVIDIA
2010), which the query also reads the coordinates in, built on the first
query. The binary file (version 2; version 1 files still load) holds these
and the PointSet's arrays as they are; loading rebuilds and converts nothing.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .core import LABEL_KINDS, METRICS, PointSet, _check_finite, _check_labels, _check_metric

CellId = tuple[int, ...]


@dataclass(frozen=True)
class GridParams:
    """Fitted grid geometry: per-dimension cell widths and split counts.

    Hashing anchors at zero, so the d >= 1 positive finite widths alone
    place every cell; the d integer split counts, each >= 1, are only reported.
    """

    widths: np.ndarray
    splits: np.ndarray

    def __post_init__(self) -> None:
        widths, splits = np.asarray(self.widths), np.asarray(self.splits)
        if widths.ndim != 1 or widths.size == 0 or splits.shape != widths.shape:
            raise ValueError(f"widths {widths.shape} and splits {splits.shape} are not both (d,), d >= 1")
        if widths.dtype.kind not in "iuf" or not np.all((widths > 0) & np.isfinite(widths)):
            raise ValueError("all cell widths must be positive and finite numbers")
        if splits.dtype.kind != "i" or not np.all(splits >= 1):  # no bool, string or rounded float
            raise ValueError("every split count must be at least 1 and of integer dtype")
        object.__setattr__(self, "widths", np.asarray(widths, dtype=float))
        object.__setattr__(self, "splits", np.asarray(splits, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.widths.shape[0]


#: _max_splits_1d's budget in elements per broadcast, and how many widest gaps it probes first.
_SPLIT_BLOCK = 1 << 14
_PROBE = 8


def _bin_of(values: np.ndarray, lo: float, span: float, s) -> np.ndarray:
    # Right edge is closed: the maximum value belongs to the last bin.
    return np.minimum(np.floor((values - lo) * s / span), s - 1)


def _gaps_pass(left, right, lo: float, span: float, s, cnt, start: int, stop: int) -> np.ndarray:
    """Per candidate s[i], whether none of the gaps start..stop - 1 among its cnt[i] widest empties a bin."""
    lb, rb = (_bin_of(ends[start:stop], lo, span, s[:, None]) for ends in (left, right))
    return (((rb - lb) <= 1) | (np.arange(start, stop) >= cnt[:, None])).all(axis=1)


def _max_splits_1d(values: np.ndarray) -> tuple[int, float]:
    """Largest split count s leaving no bin of [lo, hi] empty, and the width.

    A bin can only go empty inside a gap between consecutive distinct
    values, and only when gap * s > span, so each candidate s is checked
    against its cnt largest gaps instead of rehashing every value. Blocks of
    _SPLIT_BLOCK // _PROBE candidates, from the top down, are probed against
    their _PROBE widest gaps in one broadcast, which almost all fail; the
    survivors are verified from the top down against all their gaps in
    broadcasts of at most _SPLIT_BLOCK elements. The first to pass wins.
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
    # Every candidate s <= s_hi reads only the gaps wider than span / s_hi,
    # so only those are sorted. The ones wider than span / s are the first
    # cnt of by_size whatever order ties take, so an unstable sort serves.
    wide = np.flatnonzero(gaps > span / s_hi)
    by_size = np.argsort(gaps[wide])
    gaps_asc = gaps[wide[by_size]]
    by_size = wide[by_size[::-1]]
    left, right = distinct[by_size], distinct[by_size + 1]
    for top in range(s_hi, 1, -(_SPLIT_BLOCK // _PROBE)):
        s = np.arange(top, max(top - _SPLIT_BLOCK // _PROBE, 1), -1)
        cnt = wide.size - np.searchsorted(gaps_asc, span / s, side="right")
        keep = _gaps_pass(left, right, lo, span, s, cnt, 0, min(_PROBE, int(cnt[0])))
        s, cnt = s[keep], cnt[keep]
        while s.size:  # the survivors, from the top down, against all of their gaps
            width = int(cnt[0])
            rows = max(1, _SPLIT_BLOCK // max(width, 1))
            ok = np.ones(min(rows, s.size), dtype=bool)
            for start in range(0, width, _SPLIT_BLOCK):
                ok &= _gaps_pass(left, right, lo, span, s[:rows], cnt[:rows], start, min(start + _SPLIT_BLOCK, width))
            if ok.any():
                best = int(s[ok.argmax()])
                return best, span / best
            s, cnt = s[rows:], cnt[rows:]
    return 1, span


def fit_cell_measurements(data: PointSet) -> GridParams:
    """Fit per-dimension cell widths from the training data.

    Each dimension independently gets the largest split count that keeps
    every bin of its value range occupied; the cell width is range/splits.
    Constant dimensions fall back to a single split of width 1.
    """
    splits, widths = zip(*map(_max_splits_1d, data.coords.T))
    return GridParams(widths=widths, splits=splits)


def hash_cell(p, params: GridParams) -> CellId:
    """Cell id of a point: per-dimension floor division by the cell width.

    Floor is toward negative infinity, so points left of the origin land
    in distinct negative cells. Raises ValueError, as knn_query does, for
    a non-finite coordinate or a cell id past +-2**62.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (params.dim,):
        raise ValueError(f"dimension mismatch: point {p.shape}, grid {params.dim}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"point has a non-finite coordinate: {p}")
    return tuple(_cell_ids(p, params.widths).tolist())


_TOO_FAR = "coordinates too far from the origin: a cell id leaves +-2**62"


def _cell_ids(x: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """floor(x / widths) as int64, for one point or a matrix of points.

    Raises ValueError when an id leaves +-2**62. Within that bound the cast
    cannot overflow, and neither can the difference of two ids, which the
    query's layer arithmetic takes.
    """
    ids = x / widths
    np.floor(ids, out=ids)  # in place: one (n, d) temporary, not two
    if not _within_cell_bound(ids.min(), ids.max()):
        raise ValueError(_TOO_FAR)
    return ids.astype(np.int64)


def _query_cell(q: np.ndarray, widths: np.ndarray) -> list[int]:
    """floor(q / widths) of one finite point as Python ints, in fewer numpy calls than _cell_ids."""
    ids = np.floor(q / widths).tolist()
    if not _within_cell_bound(min(ids), max(ids)):  # q is finite: min and max can pass over a NaN
        raise ValueError(_TOO_FAR)
    return list(map(int, ids))


def _within_cell_bound(lo, hi) -> bool:
    """Whether cell ids with minimum lo and maximum hi lie strictly inside +-2**62 (np.abs(-2**63) < 0)."""
    return bool(lo > -(2**62) and hi < 2**62)


def _box_cols(cells: np.ndarray, lo: list[int], hi: list[int]) -> np.ndarray:
    """(d, m) cells - lo, one row per dimension, in the narrowest of int16, int32 and int64 that holds +-side."""
    side = max(b - a for a, b in zip(lo, hi)) + 1  # the longest side of the box lo..hi
    dtype = next(t for t in (np.int16, np.int32, np.int64) if side <= np.iinfo(t).max)
    return np.stack([(col - a).astype(dtype) for col, a in zip(cells.T, lo)])


#: The cell table's padding, in cells per side: it serves layers 0.._TABLE_PAD.
_TABLE_PAD = 2


@dataclass(eq=False)
class GridIndex:
    """Immutable grid index over a training set, in CSR layout.

    CSR ("compressed sparse row") is three arrays: cell_array holds the ids
    of the non-empty cells, sorted lexicographically; order holds the point
    indices sorted by cell, input order kept inside each cell; and the
    points of cell i are order[offsets[i]:offsets[i + 1]]. save_index
    writes these arrays as they are and cell_points reads a cell's points
    from them; the query reads lazy views, never saved: cell i's
    coordinates as the columns offsets[i]:offsets[i + 1] of cell_coords,
    which its first call builds, its near cells from cell_table, a slab
    round's cells from cell_cols and, once a layer holds more points than
    cells, each cell's bounding box from cell_boxes. coords and labels are
    the PointSet's read-only arrays. cell_lo and cell_hi, the cells' box,
    are lists of Python ints.
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
        # One pass per column: a reduction across the rows is 10x slower.
        self.cell_lo = [int(col.min()) for col in self.cell_array.T]
        self.cell_hi = [int(col.max()) for col in self.cell_array.T]
        self.min_width = float(self.params.widths.min())

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

    @cached_property
    def cell_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (C, d) per-cell minimum and maximum of the cells' own coordinates.

        Built from cell_coords on first use and never saved. The query
        skips a cell whose box lies farther from it than the kth neighbor.
        """
        starts = self.offsets[:-1]
        boxes = tuple(
            np.ascontiguousarray(ufunc.reduceat(self.cell_coords, starts, axis=1).T)
            for ufunc in (np.minimum, np.maximum)
        )
        for box in boxes:
            box.flags.writeable = False
        return boxes

    @cached_property
    def cell_cols(self) -> np.ndarray:
        """Read-only (d, C) cell_array - cell_lo in _box_cols's narrow dtype, for slab rounds; never saved."""
        cols = _box_cols(self.cell_array, self.cell_lo, self.cell_hi)
        cols.flags.writeable = False
        return cols

    @cached_property
    def cell_sizes(self) -> np.ndarray:
        """Points per cell: the query counts a layer's points with it."""
        return np.diff(self.offsets)

    @cached_property
    def cell_table(self) -> tuple[np.ndarray, list[int], list[int], list[np.ndarray]] | None:
        """(table, base, strides, stencils) over the cells' padded box; None past 8n cells.

        A cell's key sum((cell - base) * strides) is its mixed-radix place in
        the bounding box padded by _TABLE_PAD cells per side, first dimension
        most significant; table[key] is its CSR row, or -1 (Green's cell-start
        array). stencils[l - 1] holds the ascending key offsets of layer l;
        the padding keeps them from aliasing. Built on first use, never saved.
        """
        pad = _TABLE_PAD
        base = [a - pad for a in self.cell_lo]
        sides = [b - a + 1 + 2 * pad for a, b in zip(self.cell_lo, self.cell_hi)]
        if math.prod(sides) > 8 * self.size:
            return None
        strides = [math.prod(sides[j + 1 :]) for j in range(len(sides))]
        table = np.full(math.prod(sides), -1, dtype=np.int64)
        table[(self.cell_array - base) @ strides] = np.arange(self.cell_array.shape[0])
        deltas = np.array(list(itertools.product(range(-pad, pad + 1), repeat=len(sides))))  # keys ascend
        layer, keys = np.abs(deltas).max(axis=1), deltas @ strides
        stencils = [keys[layer == l] for l in range(1, pad + 1)]
        for a in (table, *stencils):
            a.flags.writeable = False
        return table, base, strides, stencils


def build(data: PointSet, metric: str = "euclidean", params: GridParams | None = None) -> GridIndex:
    """Build the grid index: fit widths, hash every point into its cell.

    One stable lexsort orders the points by cell id, less the box corner in
    _box_cols's narrow dtype, so they keep their input order inside each
    cell. Pass explicit params to skip fitting (for constructed scenarios).
    """
    _check_metric(metric)
    if params is None:
        params = fit_cell_measurements(data)
    elif params.dim != data.coords.shape[1]:
        raise ValueError("params dimension does not match the data")
    n = data.coords.shape[0]
    ids = _cell_ids(data.coords, params.widths)
    # int16 keys on a box of up to 2**15 - 1 cells a side, which numpy radix-sorts.
    cols = _box_cols(ids, [int(col.min()) for col in ids.T], [int(col.max()) for col in ids.T])
    order = np.lexsort(cols[::-1])
    new_cell = np.zeros(n - 1, dtype=bool)
    for col in cols.take(order, axis=1):  # take: fancy indexing of a 2-D array is 3-4x slower
        new_cell |= col[1:] != col[:-1]
    firsts = np.concatenate(([0], np.flatnonzero(new_cell) + 1))
    cell_array = ids.take(order[firsts], axis=0)
    offsets = np.append(firsts, n).astype(np.int64)
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

#: The arrays of a version 2 file in file order: name, the GridIndex attribute
#: save_index writes, the dtype kinds it may have (labels as in PointSet), and
#: its shape for n points in d dimensions and c cells. _LAYOUTS[1] puts back
#: version 1's origin (training minima), which load_index checks, then drops.
_LAYOUT = (
    ("widths", attrgetter("params.widths"), "f", lambda n, d, c: (d,)),
    ("splits", attrgetter("params.splits"), "i", lambda n, d, c: (d,)),
    ("coords", attrgetter("coords"), "f", lambda n, d, c: (n, d)),
    ("labels", attrgetter("labels"), LABEL_KINDS, lambda n, d, c: (n,)),
    ("cell_ids", attrgetter("cell_array"), "i", lambda n, d, c: (c, d)),
    ("offsets", attrgetter("offsets"), "i", lambda n, d, c: (c + 1,)),
    ("order", attrgetter("order"), "i", lambda n, d, c: (n,)),
)
_LAYOUTS = {1: (_LAYOUT[0], ("origin", None, "f", lambda n, d, c: (d,)), *_LAYOUT[1:]), 2: _LAYOUT}


def save_index(index: GridIndex, path) -> None:
    """Write the index to a deterministic binary file, version 2.

    Layout: magic, length-prefixed JSON header (version, metric, and array
    dtypes and shapes), then the raw bytes of each array of _LAYOUT in order.
    The offsets and order arrays are the index's CSR arrays, written as is.
    save -> load -> save reproduces the file byte for byte.
    """
    arrays = {name: np.ascontiguousarray(source(index)) for name, source, _kinds, _shape in _LAYOUT}
    meta = {name: {"dtype": a.dtype.str, "shape": list(a.shape)} for name, a in arrays.items()}
    blob = json.dumps({"version": 2, "metric": index.metric, "arrays": meta}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays.values():
            fh.write(a)  # through the buffer protocol: the bytes are not copied


def load_index(path) -> GridIndex:
    """Read an index written by save_index, version 2 or 1.

    The header must give the int 2 or 1, a known metric and each array's dtype
    kind and shape in that version's _LAYOUTS, the file's size must match the
    header, and every shape must agree with the n, d and c that coords and
    cell_ids give, before any array is read. Then offsets must rise strictly
    from 0 to n, order be a permutation of 0..n-1, cell ids rise strictly
    inside +-2**62, coordinates be finite, labels free of NaN, widths positive
    and finite and split counts at least 1. A change to order breaks the
    permutation; one to offsets is caught when it breaks the strict rise.
    Coordinates and labels are not checksummed; they come back read-only.
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
            version = header.get("version")
            if type(version) is not int or version not in _LAYOUTS:
                raise ValueError("unsupported index version")
            metric = header["metric"]
            entries = [(name, kinds, header["arrays"][name]) for name, _source, kinds, _shape in _LAYOUTS[version]]
            layout = [(name, kinds, np.dtype(e["dtype"]), tuple(e["shape"])) for name, kinds, e in entries]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad header: {exc}") from None
        for name, kinds, dtype, shape in layout:
            if dtype.kind not in kinds:
                raise ValueError(f"{path}: {name} has dtype {dtype}, expected a kind in {kinds!r}")
            if not all(type(v) is int and v >= 0 for v in shape):
                raise ValueError(f"{path}: corrupt header entry for {name}")
        if metric not in METRICS:
            raise ValueError(f"{path}: unknown metric {metric!r}")
        sizes = [dtype.itemsize * math.prod(shape) for _, _, dtype, shape in layout]
        if os.fstat(fh.fileno()).st_size != fh.tell() + sum(sizes):
            raise ValueError(f"{path}: file size does not match its header (truncated?)")
        shapes = {name: shape for name, _, _, shape in layout}
        if len(shapes["coords"]) != 2 or len(shapes["cell_ids"]) != 2 or 0 in shapes["coords"]:
            raise ValueError(f"{path}: coords and cell_ids must be non-empty matrices")
        (n, d), c = shapes["coords"], shapes["cell_ids"][0]
        for name, _source, _kinds, shape_of in _LAYOUTS[version]:
            if shapes[name] != shape_of(n, d, c):
                raise ValueError(f"{path}: {name} has shape {shapes[name]}, expected {shape_of(n, d, c)}")
        arrays = {}
        for name, _, dtype, shape in layout:
            arrays[name] = np.empty(shape, dtype=dtype)
            if fh.readinto(arrays[name]) != arrays[name].nbytes:
                raise ValueError(f"{path}: truncated in the {name} array")
    for name in ("coords", "labels"):  # read-only, as in the PointSet they were saved from
        arrays[name].flags.writeable = False
    offsets, order = _check_arrays(path, arrays)
    try:
        _check_finite(arrays["coords"])
        _check_labels(arrays["labels"])
        params = GridParams(arrays["widths"], arrays["splits"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return GridIndex(params, arrays["coords"], arrays["labels"], metric, arrays["cell_ids"], order, offsets)


def _check_arrays(path, arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """Structural checks of a loaded index, in O(n + C*d), the cell ids one column at a time.

    Returns the offsets and order arrays as int64, the dtype the query uses.
    """
    n, cells = arrays["coords"].shape[0], arrays["cell_ids"]
    c = cells.shape[0]
    offsets = arrays["offsets"].astype(np.int64, copy=False)
    if offsets[0] != 0 or offsets[-1] != n or np.any(offsets[1:] <= offsets[:-1]):
        raise ValueError(f"{path}: offsets do not rise strictly from 0 to {n}")
    order = arrays["order"].astype(np.int64, copy=False)
    if order.min() < 0 or order.max() >= n or np.any(np.bincount(order, minlength=n) != 1):
        raise ValueError(f"{path}: order is not a permutation of 0..{n - 1}")
    # Row i + 1 rises past row i iff it is greater in the first column where they differ.
    rises, ties = np.zeros(c - 1, dtype=bool), np.ones(c - 1, dtype=bool)
    for col in cells.T:
        rises |= ties & (col[1:] > col[:-1])
        ties &= col[1:] == col[:-1]
    if not rises.all():
        raise ValueError(f"{path}: cell ids are not strictly increasing")
    if not _within_cell_bound(cells.min(), cells.max()):
        raise ValueError(f"{path}: a cell id leaves +-2**62")
    return offsets, order
