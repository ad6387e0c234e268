"""Layered exploration: k-nearest-neighbor queries over a grid index.

Starting from the query's central cell, cells are visited layer by layer
(layer l = all cells at Chebyshev distance l in cell-id space). Only
occupied layers are scanned: each round of the walk binary-searches the
sorted cell ids for a slab around the query, computes the layer of the
cells in it and visits them in increasing layer order, gathering their
points from the index's CSR arrays. Candidates feed a top-k selection
(a partition threshold, then a lexsort of the survivors by distance and
index); exploration stops either when a full layer produces no update
(heuristic, may rarely miss; an empty layer produces none) or when a
geometric lower bound proves no unvisited cell can improve the result
(guaranteed).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Neighbor, keys_to_distances, ordering_keys
from .grid import CellId, GridIndex, _cell_ids

STOP_MODES = ("heuristic", "guaranteed")


@dataclass(frozen=True)
class QueryStats:
    """Work counters for one query.

    layers_visited is the index of the last visited layer (0 = central
    cell only); cells_visited counts distinct non-empty cells examined.
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
    does not grow with the query's distance from the data. Returns
    neighbors sorted by (distance, point_index), plus stats.

    Raises ValueError for a NaN or infinite query, and for one so far
    from the origin (such as 1e300) that its cell id leaves +-2**62, where
    int64 cell arithmetic could overflow.
    """
    if mode not in STOP_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {STOP_MODES}")
    q = np.asarray(q, dtype=float)
    if q.shape != (index.dim,):
        raise ValueError(f"dimension mismatch: query {q.shape}, index {index.dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"query has a non-finite coordinate: {q}")
    n = index.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    metric = index.metric
    widths = index.params.widths
    try:
        center = _cell_ids(q, widths)
    except ValueError as exc:
        raise ValueError(f"query {q}: {exc}") from None
    min_width = float(widths.min())

    best_keys = np.empty(0)
    best_idx = np.empty(0, dtype=np.int64)
    cells_visited = 0
    points_scanned = 0
    last = -1  # last visited layer
    for l, cells in _occupied_layers(index, center, k):
        if best_idx.size == k and l > last + 1:
            # Layers last+1 .. l-1 are empty: each counts as a layer with
            # no update whose bound may already exceed the kth distance.
            if mode == "heuristic":
                last += 1
                break
            stop = _first_bound_past(last + 1, l - 1, min_width, metric, best_keys[-1])
            if stop is not None:
                last = stop
                break
        cand = _gather(index, cells)
        keys = ordering_keys(q, index.coords.take(cand, axis=0), metric)
        cells_visited += int(cells.size)
        points_scanned += int(cand.size)
        changed, best_keys, best_idx = _merge(best_keys, best_idx, keys, cand, k)
        last = l
        if best_idx.size == k:
            if mode == "heuristic" and not changed:
                break
            if mode == "guaranteed" and _bound_key(l, min_width, metric) > best_keys[-1]:
                break

    dists = keys_to_distances(best_keys, metric)
    neighbors = [
        Neighbor(float(d), int(i), index.labels[int(i)])
        for d, i in zip(dists, best_idx)
    ]
    return neighbors, QueryStats(last, cells_visited, points_scanned)


def _occupied_layers(index: GridIndex, center: np.ndarray, k: int):
    """Yield (l, cell rows) for each occupied layer around center, l ascending.

    Rows of one layer come in lexicographic order. Layers are found in
    rounds covering l in (done, r]: binary search on the sorted first cell
    coordinate bounds a round to the slab |c0 - center0| <= r, and r grows
    by a doubling step. The first round starts at the nearest layer the
    cells' bounding box allows and spans a cube that would hold about k
    points if they filled the box evenly; the last ends at the farthest.
    """
    cells = index.cell_array
    c, lo, hi = center.tolist(), index.cell_lo.tolist(), index.cell_hi.tolist()
    near = max(max(a - x, x - b, 0) for x, a, b in zip(c, lo, hi))
    far = max(max(x - a, b - x) for x, a, b in zip(c, lo, hi))
    log_side = math.log(k / index.size) + sum(math.log(b - a + 1) for a, b in zip(lo, hi))
    done, step = near - 1, max(1, int(math.exp(log_side / len(c)) / 2))
    while done < far:
        r = min(done + step, far)
        a = int(np.searchsorted(cells[:, 0], max(c[0] - r, lo[0]), side="left"))
        b = int(np.searchsorted(cells[:, 0], min(c[0] + r, hi[0]), side="right"))
        slab = cells[a:b]
        cheb = np.abs(slab[:, 0] - center[0])
        for j in range(1, slab.shape[1]):
            np.maximum(cheb, np.abs(slab[:, j] - center[j]), out=cheb)
        rows = np.flatnonzero((cheb > done) & (cheb <= r))
        done, step = r, 2 * step
        if rows.size == 0:
            continue
        layer = cheb[rows]
        by_layer = np.argsort(layer, kind="stable")
        rows, layer = rows[by_layer] + a, layer[by_layer]
        starts = [0, *(np.flatnonzero(layer[1:] != layer[:-1]) + 1).tolist()]
        for s, e in zip(starts, [*starts[1:], rows.size]):
            yield int(layer[s]), rows[s:e]


def _gather(index: GridIndex, cells: np.ndarray) -> np.ndarray:
    """Point indices of the given cells, cell after cell, from the CSR arrays."""
    starts = index.offsets[cells]
    ends = index.offsets[cells + 1]
    if cells.size == 1:
        return index.order[starts[0] : ends[0]]
    counts = ends - starts
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return index.order[shift + np.arange(shift.size)]


def _merge(best_keys, best_idx, keys, cand, k: int):
    """Top k of the buffer and the candidates by (key, index); (changed, keys, idx)."""
    if best_idx.size == k:
        keep = keys <= best_keys[-1]  # a worse key cannot displace the kth entry
        if not keep.any():
            return False, best_keys, best_idx
        keys, cand = keys[keep], cand[keep]
    all_keys = np.concatenate([best_keys, keys])
    all_idx = np.concatenate([best_idx, cand])
    if all_keys.size > k:
        # Every tie of the kth key survives, so the lexsort still breaks
        # ties toward the lower index.
        keep = all_keys <= np.partition(all_keys, k - 1)[k - 1]
        all_keys, all_idx = all_keys[keep], all_idx[keep]
    top = np.lexsort((all_idx, all_keys))[:k]
    new_keys, new_idx = all_keys[top], all_idx[top]
    changed = new_idx.size != best_idx.size or not np.array_equal(new_idx, best_idx)
    return changed, new_keys, new_idx


def _bound_key(l: int, min_width: float, metric: str) -> float:
    """Ordering key of the guaranteed-mode lower bound beyond layer l."""
    bound = l * min_width
    return bound * bound if metric == "euclidean" else bound


def _first_bound_past(lo: int, hi: int, min_width: float, metric: str, kth) -> int | None:
    """First layer in [lo, hi] whose bound key exceeds kth, or None.

    The bound key does not decrease with l, so a binary search finds it.
    """
    if not _bound_key(hi, min_width, metric) > kth:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if _bound_key(mid, min_width, metric) > kth:
            hi = mid
        else:
            lo = mid + 1
    return lo
