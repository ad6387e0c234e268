"""Layered exploration: k-nearest-neighbor queries over a grid index.

Starting from the query's central cell, cells are visited layer by layer
(layer l = all cells at Chebyshev distance l in cell-id space). Only
occupied layers are scanned. When the query's cell lies inside a dense
cell box (GridIndex.cell_table), layers 0-2 come from the table, the
paper's hashed cell lookup as a direct-address table: layer 0 is one
read, layer l a cached stencil of key offsets, one gather and one mask.
Every other layer, and every layer of a query outside the box or of an
index too sparse for a table, comes from slab rounds: each round
binary-searches the sorted cell ids for a slab around the query,
computes the layer of the cells in it and visits them in increasing
layer order. The first round spans a cube expected to hold about 8k
points and each later one doubles, but once the buffer is full with kth
distance D, a round that starts below layer floor(D / min width) + 2
ends there. A layer's points are read from the index's cell-ordered
coordinates (built on the first query): a slice for one cell, else one
gather. Once the buffer is full, a layer holding more points than cells
first tests each cell's bounding box (GridIndex.cell_boxes): a cell
whose box key exceeds the kth key cannot change the buffer and is
skipped, the bounds-overlap-ball test of Friedman, Bentley & Finkel's
kd-tree (ACM TOMS 1977) applied per cell. Each layer's candidates are
offered to core.NeighborBuffer, the top-k buffer the kd-tree also fills.
On an index of one-point cells, a slab round's points are keyed at once
and merged with the buffer in one sort (NeighborBuffer.offer_layers),
and the stopping rule is replayed on its per-layer results. Exploration
stops either when a full layer produces no update (heuristic, may rarely
miss; an empty layer produces none) or when a geometric lower bound
proves no unvisited cell can improve the result (guaranteed).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Neighbor,
    NeighborBuffer,
    check_query,
    distances_to_keys,
    gap_keys,
    keys_to_distances,
    ordering_keys,
)
from .grid import CellId, GridIndex, _query_cell

STOP_MODES = ("heuristic", "guaranteed")


@dataclass(frozen=True)
class QueryStats:
    """Work counters for one query.

    layers_visited is the index of the last visited layer (0 = central
    cell only); cells_visited counts distinct non-empty cells examined.
    points_scanned counts every point held by a visited cell, as the
    reference layer-by-layer walk did, including the points of cells
    skipped because their bounding box cannot beat the kth key; it can
    therefore exceed the number of distances computed.
    """

    layers_visited: int
    cells_visited: int
    points_scanned: int


def layer_cell_count(l: int, d: int) -> int:
    """Number of cells on layer l in d dimensions: (2l+1)^d - (2l-1)^d."""
    if l < 1 or d < 1:
        raise ValueError("require l >= 1 and d >= 1")
    return (2 * l + 1) ** d - (2 * l - 1) ** d


def total_cell_count(l: int, d: int) -> int:
    """Cells on layers 1..l combined (center excluded): (2l+1)^d - 1."""
    if l < 0 or d < 1:
        raise ValueError("require l >= 0 and d >= 1")
    return (2 * l + 1) ** d - 1


def layer_cells(center, l: int) -> set[CellId]:
    """All cell ids at Chebyshev distance exactly l from center."""
    if l < 0:
        raise ValueError("require l >= 0")
    center = tuple(int(c) for c in center)
    if l == 0:
        return {center}
    d = len(center)
    cells = set()
    for offs in itertools.product(range(-l, l + 1), repeat=d):
        if max(abs(o) for o in offs) == l:
            cells.add(tuple(c + o for c, o in zip(center, offs)))
    return cells


def knn_query(
    index: GridIndex, q, k: int, mode: str = "heuristic"
) -> tuple[list[Neighbor], QueryStats]:
    """Select the k nearest training points to q by layered exploration.

    Modes:
      heuristic  -- stop once the buffer is full and a whole layer caused
                    no update (an empty layer causes none);
      guaranteed -- stop only when l * min(width) exceeds the kth distance,
                    which lower-bounds the distance to anything beyond
                    layer l; results then match brute force exactly.

    Both modes terminate once the visited layers cover every non-empty
    cell. Only occupied layers are scanned: the stopping rule is applied
    to the empty layers between them without visiting them, so the cost
    does not grow with the query's distance from the data; on one-point
    cells, it is replayed on a whole slab round merged at once. Returns
    neighbors sorted by (distance, point_index), plus stats.

    Raises ValueError for a NaN or infinite query, and for one so far
    from the origin (such as 1e300) that its cell id leaves +-2**62, where
    int64 cell arithmetic could overflow.
    """
    if mode not in STOP_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {STOP_MODES}")
    q = check_query(q, index.dim, k, index.size)
    metric = index.metric
    try:
        center = _query_cell(q, index.params.widths)
    except ValueError as exc:
        raise ValueError(f"query {q}: {exc}") from None
    min_width = index.min_width
    cell_coords, offsets = index.cell_coords, index.offsets
    # Unless some cell holds two or more points, no layer holds more points
    # than cells, and a cell's box is its point: the box test is skipped.
    fat = index.size > offsets.size - 1

    buf = NeighborBuffer(k)
    cells_visited = 0
    points_scanned = 0
    last = -1  # last visited layer
    for l, cells in _occupied_layers(index, center, k, buf, not fat):
        if isinstance(l, np.ndarray):
            # A whole slab round of one-point cells, l holding each row's layer.
            opens = np.concatenate(([True], l[1:] != l[:-1]))  # a row that opens a layer
            layers, group = l[opens], np.cumsum(opens)
            keys = ordering_keys(q, cell_coords.take(cells, axis=1).T, metric)
            full, kth, changed, keep = buf.offer_layers(keys, index.order[cells], group)
            prev = np.concatenate(([last], layers))  # prev[j]: the last layer visited once j are
            gap = full[:-1] & (layers > prev[:-1] + 1)  # empty layers after a full buffer
            if mode == "heuristic":
                halt = full[1:] & ~changed
            else:
                gap &= distances_to_keys((layers - 1) * min_width, metric) > kth[:-1]
                halt = full[1:] & (distances_to_keys(layers * min_width, metric) > kth[1:])
            # The layers visited: all, or those before the first stop and,
            # unless the walk stops in the empty layers before it, its own.
            stops = (gap | halt).nonzero()[0]
            j = int(stops[0]) + (not gap[stops[0]]) if stops.size else layers.size
            keep(j)
            count = int(np.count_nonzero(group <= j))  # one point per cell
            cells_visited += count
            points_scanned += count
            last = int(prev[j])
            if not stops.size:
                continue
            if j > stops[0]:
                break
            l = int(layers[j])  # the walk stops in the empty layers before l, below
        if buf.full and l > last + 1:
            # Layers last+1 .. l-1 are empty: each counts as a layer with
            # no update whose bound may already exceed the kth distance.
            if mode == "heuristic":
                last += 1
                break
            stop = _first_bound_past(last + 1, l - 1, min_width, metric, buf.keys[-1])
            if stop is not None:
                last = stop
                break
        cells_visited += int(cells.size)
        count = None  # the layer's points, counted here only for the box test
        if buf.full and fat:
            count = int(np.add.reduce(index.cell_sizes[cells]))
            if count > cells.size:
                # A cell whose box key exceeds the kth key holds no point
                # that could enter the buffer: skip it. The reference walk
                # counted its points as scanned, and so does this one.
                cells = cells[_box_keys(index, q, cells) <= buf.keys[-1]]
        changed = False
        if cells.size:
            pos = _positions(offsets, cells)
            block = cell_coords[:, pos] if isinstance(pos, slice) else cell_coords.take(pos, axis=1)
            keys = ordering_keys(q, block.T, metric)
            changed = buf.offer(keys, pos, index.order)
            if count is None:
                count = keys.size
        points_scanned += count
        last = l
        if buf.full:
            if mode == "heuristic" and not changed:
                break
            if mode == "guaranteed" and distances_to_keys(l * min_width, metric) > buf.keys[-1]:
                break

    return buf.labelled(metric, index.labels), QueryStats(last, cells_visited, points_scanned)


def _occupied_layers(index: GridIndex, c: list[int], k: int, buf: NeighborBuffer | None = None, rounds=False):
    """Yield (l, cell rows) for each occupied layer around cell c, l ascending.

    Rows of one layer ascend. With a cell table and c inside the cells'
    box, layers 0.._TABLE_PAD come from the table. The other layers
    are found in rounds covering l in (done, r]: binary search on the
    sorted first cell coordinate bounds a round to the slab
    |c0 - center0| <= r, and r grows by a doubling step. The first round
    starts at the nearest layer the cells' bounding box allows and spans a
    cube that would hold about 8k points if they filled the box evenly, but
    at least two layers: the first occupied layer always changes the empty
    buffer, so a heuristic walk never stops at it. Once buf is full with
    kth distance D, no round reaches past layer floor(D / min width) + 2,
    whose points are farther than D, unless it starts there. The last round
    ends at the farthest layer. With rounds, a slab round is yielded whole:
    (each row's layer, rows), sorted by layer.
    """
    cells = index.cell_array
    lo, hi = index.cell_lo, index.cell_hi
    near = max(max(a - x, x - b, 0) for x, a, b in zip(c, lo, hi))
    far = max(max(x - a, b - x) for x, a, b in zip(c, lo, hi))
    done = near - 1
    if near == 0 and index.cell_table is not None:
        table, base, strides, stencils = index.cell_table
        key = sum((x - a) * s for x, a, s in zip(c, base, strides))
        rows = table[key : key + 1]
        if rows[0] >= 0:
            yield 0, rows
        for l, offs in enumerate(stencils[:far], 1):
            rows = table[offs + key]
            rows = rows[rows >= 0]
            if rows.size:
                yield l, rows
        done = len(stencils)
    if done < far:
        log_side = math.log(k / index.size) + sum(math.log(b - a + 1) for a, b in zip(lo, hi))
        step = max(2, int(math.exp(log_side / len(c))))
    while done < far:
        r = min(done + step, far)
        if buf is not None and buf.full:
            cap = keys_to_distances(buf.keys[-1], index.metric) / index.min_width + 2
            if done + 1 <= cap < r:
                r = int(cap)
        a = int(np.searchsorted(cells[:, 0], max(c[0] - r, lo[0]), side="left"))
        b = int(np.searchsorted(cells[:, 0], min(c[0] + r, hi[0]), side="right"))
        slab = cells[a:b]
        cheb = np.abs(slab[:, 0] - c[0])
        for j in range(1, slab.shape[1]):
            np.maximum(cheb, np.abs(slab[:, j] - c[j]), out=cheb)
        rows = np.flatnonzero((cheb > done) & (cheb <= r))
        done, step = r, 2 * step
        if rows.size == 0:
            continue
        layer = cheb[rows]
        by_layer = np.argsort(layer, kind="stable")
        rows, layer = rows[by_layer] + a, layer[by_layer]
        if rounds:
            yield layer, rows
            continue
        starts = [0, *(np.flatnonzero(layer[1:] != layer[:-1]) + 1).tolist()]
        for s, e in zip(starts, [*starts[1:], rows.size]):
            yield int(layer[s]), rows[s:e]


def _positions(offsets: np.ndarray, cells: np.ndarray):
    """CSR positions of the cells' points, cell after cell: a slice for one cell."""
    if cells.size == 1:
        return slice(*offsets[cells[0] : cells[0] + 2].tolist())
    starts = offsets[cells]
    counts = offsets[cells + 1] - starts
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return shift + np.arange(shift.size)


def _box_keys(index: GridIndex, q: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Ordering keys of the per-dimension gaps from q to each cell's bounding box.

    A point's gap to q in a dimension is at least the box's, also after
    rounding, which is monotone; gap_keys sums both left to right, so no
    point of a cell has a key below its box key.
    """
    lo, hi = index.cell_boxes
    gaps = np.maximum(lo[cells] - q, q - hi[cells], order="F")
    np.maximum(gaps, 0.0, out=gaps)
    return gap_keys(gaps, index.metric)


def _first_bound_past(lo: int, hi: int, min_width: float, metric: str, kth) -> int | None:
    """First layer in [lo, hi] whose bound key exceeds kth, or None.

    The bound beyond layer l is l * min_width; its key does not decrease
    with l, so a binary search finds it.
    """
    layers = range(lo, hi + 1)
    i = bisect.bisect_right(layers, kth, key=lambda l: distances_to_keys(l * min_width, metric))
    return layers[i] if i < len(layers) else None
