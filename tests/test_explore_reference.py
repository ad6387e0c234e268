"""Differential test: the CSR query against the frozen layer-by-layer walk.

Both must return the same neighbors (distance, index, label) and the same
QueryStats, in both modes and for every metric.
"""

import numpy as np
import pytest

from gridneighbors import (
    METRICS,
    STOP_MODES,
    GridParams,
    brute_build,
    brute_knn,
    build,
    explore,
    knn_query,
    points_from_arrays,
)
from gridneighbors.core import ordering_keys
from reference_knn import BucketIndex
from reference_knn import knn_query as reference_knn_query


def _answer(neighbors, stats):
    return [(n.distance, n.point_index, n.label) for n in neighbors], stats


def _assert_same(index, queries, ks):
    ref = BucketIndex(index)
    for q in queries:
        for k in ks:
            for mode in STOP_MODES:
                got = _answer(*knn_query(index, q, k, mode))
                want = _answer(*reference_knn_query(ref, q, k, mode))
                assert got == want, (q, k, mode)


def _ks(n):
    return sorted({1, min(3, n), min(10, n), n})


def _far(rng, X, widths, count):
    """Queries about 1e3 cell widths outside the data's bounding box."""
    u = rng.normal(size=(count, X.shape[1]))
    u /= np.abs(u).max(axis=1, keepdims=True)
    return X.max(axis=0) + 1e3 * widths * u


@pytest.mark.parametrize("metric", METRICS)
def test_gaussian(rng, metric):
    for _ in range(12):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(20, 300))
        X = rng.normal(0, float(rng.uniform(0.5, 5)), (n, d))
        index = build(points_from_arrays(X, rng.integers(0, 3, n)), metric)
        queries = [X[int(rng.integers(0, n))] + rng.normal(0, 0.3, d), rng.uniform(-20, 20, d)]
        _assert_same(index, queries, _ks(n))


@pytest.mark.parametrize("metric", METRICS)
def test_lattice_queries_on_cell_edges(rng, metric):
    # Integer points on unit cells: every query coordinate sits on a cell
    # edge or 1e-12 off it, and distances tie in many ways.
    for d in (1, 2, 3):
        side = {1: 12, 2: 6, 3: 4}[d]
        X = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * d), -1).reshape(-1, d)
        n = X.shape[0]
        params = GridParams([1.0] * d, [0.0] * d, [side] * d)
        index = build(points_from_arrays(X, np.arange(n) % 3), metric, params=params)
        queries = [X[int(rng.integers(0, n))] + rng.choice([-1e-12, 0.0, 1e-12], d) for _ in range(4)]
        queries.append(np.full(d, side / 2.0))
        _assert_same(index, queries, _ks(n))


@pytest.mark.parametrize("metric", METRICS)
def test_heavy_duplicates(rng, metric):
    for d in (1, 2, 3):
        distinct = rng.normal(0, 3, (5, d))
        X = distinct[rng.integers(0, 5, 120)]
        index = build(points_from_arrays(X, rng.integers(0, 2, 120)), metric)
        queries = [distinct[0], distinct[1] + 0.01, rng.normal(0, 3, d)]
        _assert_same(index, queries, _ks(120))


@pytest.mark.parametrize("metric", METRICS)
def test_two_clusters_with_wide_empty_runs(rng, metric):
    # Fine cells and two clusters 200 cell widths apart: a query near one
    # cluster crosses a long run of empty layers before reaching the other.
    for d in (1, 2, 3):
        X = np.concatenate([rng.normal(0, 1, (60, d)), rng.normal(100, 1, (60, d))])
        widths = np.full(d, 0.5)
        params = GridParams(widths, X.min(axis=0), np.full(d, 400))
        index = build(points_from_arrays(X, [0] * 60 + [1] * 60), metric, params=params)
        queries = [X[3] + 0.1, X[70] - 0.1, np.full(d, 50.0), np.full(d, 30.0)]
        _assert_same(index, queries, [1, 5, 60, 61, 120])
    # The guaranteed bound beyond layer 3 (3 * min width) equals the kth
    # distance 3 to (0, -3), which is not enough to stop: the walk must go
    # on across the empty layers to layer 4.
    X = np.array([[0.0, 0.0], [0.0, -3.0], [10.5, 0.0]])
    params = GridParams([1.0, 3.0], [0.0, -3.0], [1, 1])
    index = build(points_from_arrays(X, [0, 1, 2]), metric, params=params)
    _assert_same(index, [np.zeros(2)], [2])
    assert knn_query(index, np.zeros(2), 2, "guaranteed")[1].layers_visited == 4


@pytest.mark.parametrize("metric", METRICS)
def test_queries_far_outside_the_data(rng, metric):
    for d in (1, 2, 3):
        n = 80
        X = rng.uniform(-5, 5, (n, d))
        index = build(points_from_arrays(X, rng.integers(0, 3, n)), metric)
        _assert_same(index, _far(rng, X, index.params.widths, 2), _ks(n))


# ---------------------------------------------------------------------------
# Cells skipped by their bounding box: once the buffer is full, a cell whose
# box key exceeds the kth key is not read, yet the answer and every
# QueryStats field stay those of the reference walk.


def _spy_positions(monkeypatch):
    """Record the cells of every _positions call: the cells the walk reads."""
    read = []
    positions = explore._positions

    def spy(offsets, cells):
        read.append(cells.tolist())
        return positions(offsets, cells)

    monkeypatch.setattr(explore, "_positions", spy)
    return read


def _edge_index(x0, lo, metric):
    # Width-4 cells on a line, the query at 3 in cell 0 = [0, 4). Cell 0
    # holds x0 (index 1), so the kth key of k = 1 after layer 0 is x0's.
    # Cell 1 = [4, 8) holds lo (index 0) and 6 (index 2): its box starts
    # at lo, so its box key is lo's key.
    X = np.array([[lo], [x0], [6.0]])
    return build(points_from_arrays(X, [0, 1, 2]), metric, GridParams([4.0], [0.0], [2]))


def _box_and_kth_keys(index, q):
    """Cell 1's box key, and x0's key: the kth key once layer 0 is read."""
    return explore._box_keys(index, q, np.array([1]))[0], ordering_keys(q, index.coords[1:2], index.metric)[0]


@pytest.mark.parametrize("mode", STOP_MODES)
@pytest.mark.parametrize("metric", METRICS)
def test_a_box_key_equal_to_the_kth_key_is_read(monkeypatch, metric, mode):
    # lo ties x0 at 1.5 from the query and has the lower index, so it must
    # displace x0: a cell whose box key equals the kth key is read.
    q = np.array([3.0])
    index = _edge_index(1.5, 4.5, metric)
    box, kth = _box_and_kth_keys(index, q)
    assert box == kth
    read = _spy_positions(monkeypatch)
    got, stats = knn_query(index, q, 1, mode)
    assert read == [[0], [1]]
    assert [(n.distance, n.point_index) for n in got] == [(1.5, 0)]
    assert _answer(got, stats) == _answer(*reference_knn_query(BucketIndex(index), q, 1, mode))


@pytest.mark.parametrize("mode", STOP_MODES)
@pytest.mark.parametrize("metric", METRICS)
def test_a_box_key_one_ulp_above_the_kth_key_is_skipped(monkeypatch, metric, mode):
    # x0 three ulps short of 1.5 and lo one ulp past 4.5 put the box key
    # exactly one ulp above the kth key in all three metrics.
    q = np.array([3.0])
    index = _edge_index(1.5 - 3 * 2.0**-52, np.nextafter(4.5, np.inf), metric)
    box, kth = _box_and_kth_keys(index, q)
    assert box == np.nextafter(kth, np.inf)
    read = _spy_positions(monkeypatch)
    got, stats = knn_query(index, q, 1, mode)
    assert read == [[0]]
    assert [n.point_index for n in got] == [1]
    assert stats.points_scanned == 3  # the skipped cell's points still count
    assert _answer(got, stats) == _answer(*reference_knn_query(BucketIndex(index), q, 1, mode))
    brute = brute_knn(brute_build(points_from_arrays(index.coords, [0, 1, 2]), metric), q, 1)
    assert [(n.distance, n.point_index) for n in got] == [(n.distance, n.point_index) for n in brute]


def _fat_cells(rng, d):
    """Four Gaussian clusters of 600 points, plus 8 outliers 300 away."""
    centers = rng.uniform(0, 30, (4, d))
    X = centers[rng.integers(0, 4, 2400)] + rng.normal(0, 1.5, (2400, d))
    outliers = rng.uniform(-1, 1, (8, d))
    outliers *= 300 / np.abs(outliers).max(axis=1, keepdims=True)
    return np.concatenate([X, outliers + 15])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", [3, 4])
def test_fat_cells_with_outliers(monkeypatch, rng, metric, d):
    # The fitted grid puts the clusters in one cell; width-5 cells give
    # dozens of cells of up to a few hundred points each.
    X = _fat_cells(rng, d)
    n = X.shape[0]
    for params in (None, GridParams(np.full(d, 5.0), X.min(axis=0), np.ones(d, dtype=np.int64))):
        index = build(points_from_arrays(X, rng.integers(0, 3, n)), metric, params=params)
        assert np.diff(index.offsets).max() >= 100
        queries = [X[i] + rng.normal(0, 0.5, d) for i in rng.integers(0, n - 8, 5)]
        queries += [rng.uniform(0, 30, d), X[-1] + 1.0, *_far(rng, X, index.params.widths, 1)]
        read = _spy_positions(monkeypatch)
        _assert_same(index, queries, [1, 5, 25])
        monkeypatch.undo()
        scanned = sum(
            knn_query(index, q, k, mode)[1].points_scanned
            for q in queries
            for k in (1, 5, 25)
            for mode in STOP_MODES
        )
        sizes = np.diff(index.offsets)
        assert sum(int(sizes[cells].sum()) for cells in read) < scanned  # cells were skipped


# ---------------------------------------------------------------------------
# The cell table: layers 0-2 of a query whose cell lies inside a dense box
# are read from GridIndex.cell_table, every other layer from slab rounds.


def _lattice_index(d, side, metric, rng):
    """Integer points on a side^d lattice in width-2 cells: distances tie in many ways."""
    X = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * d), -1).reshape(-1, d)
    params = GridParams([2.0] * d, [0.0] * d, [side // 2] * d)
    return build(points_from_arrays(X, rng.integers(0, 3, X.shape[0])), metric, params=params)


def _count_slab_searches(monkeypatch):
    """Count np.searchsorted calls: the slab rounds' binary searches."""
    calls = []
    searchsorted = np.searchsorted

    def spy(*args, **kwargs):
        calls.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    return calls


def test_near_layers_in_a_dense_box_skip_the_slab_search(monkeypatch, rng):
    index = _lattice_index(2, 24, "euclidean", rng)  # 12 x 12 cells of 4 points
    assert index.cell_table is not None
    calls = _count_slab_searches(monkeypatch)

    def walk(idx, center):
        """(layer, rows, slab searches made so far) for each occupied layer."""
        calls.clear()
        return [(l, rows.tolist(), len(calls)) for l, rows in explore._occupied_layers(idx, center, 3)]

    inside = walk(index, [1, 6])
    assert [l for l, _, _ in inside] == list(range(11))
    assert [n for l, _, n in inside if l <= 2] == [0, 0, 0]
    assert inside[3][2] > 0  # layer 3 on comes from the slab rounds
    # The table yields exactly what the slab rounds would.
    slab_only = build(points_from_arrays(index.coords, index.labels), params=index.params)
    vars(slab_only)["cell_table"] = None
    assert [(l, rows) for l, rows, _ in inside] == [(l, rows) for l, rows, _ in walk(slab_only, [1, 6])]
    # A query outside the box, and an index too sparse for a table, search
    # from their first layer on.
    outside = walk(index, [-1, 6])
    assert outside[0][0] == 1 and outside[0][2] > 0
    sparse = build(points_from_arrays(np.array([[0.5, 0.5], [40.5, 0.5], [1.5, 0.5]]), [0, 1, 2]),
                   params=GridParams([1.0, 1.0], [0.0, 0.0], [41, 1]))
    assert sparse.cell_table is None
    assert walk(sparse, [0, 0])[0][2] > 0


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_table_walk_at_the_box_edges(rng, metric, d):
    # Queries in the box's first and last cells read padded table entries;
    # large k carries the walk past layer 2 into the slab rounds.
    side = {1: 40, 2: 16, 3: 10, 4: 8}[d]
    index = _lattice_index(d, side, metric, rng)
    assert index.cell_table is not None
    n = index.size
    first, last = np.zeros(d), np.full(d, side - 1.0)
    queries = [first, first + 0.5, first + 1.0, last, last - 0.5, last - 1.0, np.full(d, 2.0)]
    _assert_same(index, queries, [1, 3, 2**d + 1, 3**d + 1, n])
    bi = brute_build(points_from_arrays(index.coords, index.labels), metric)
    deepest = 0
    for q in queries:
        for k in (3, 3**d + 1, n):
            got, stats = knn_query(index, q, k, "guaranteed")
            assert [(g.distance, g.point_index) for g in got] == [(b.distance, b.point_index) for b in brute_knn(bi, q, k)]
            deepest = max(deepest, stats.layers_visited)
    assert deepest > 2


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("big", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_table_walk_near_the_cell_id_bound(rng, metric, big, sign):
    # Floats near 2**62 lie 512 apart, so with width 1 a column of one such
    # value puts every point in one cell whose id is 512 inside the bound;
    # the other column spans 8 small ids. The table's box is 1 x 8 cells.
    x0 = sign * (2.0**62 - 512)
    X = np.empty((40, 2))
    X[:, big], X[:, 1 - big] = x0, rng.uniform(0, 8, 40)
    params = GridParams([1.0, 1.0], [0.0, 0.0], [1, 8][:: 1 - 2 * big])
    index = build(points_from_arrays(X, rng.integers(0, 3, 40)), metric, params=params)
    assert index.cell_lo[big] == index.cell_hi[big] == sign * (2**62 - 512)
    assert index.cell_table is not None
    edge = np.empty(2)
    edge[big] = x0
    queries = [X[i] + np.eye(2)[1 - big] * 0.3 for i in range(4)]
    for small in (0.0, 7.99, 3.0):
        edge[1 - big] = small
        queries.append(edge.copy())
    _assert_same(index, queries, [1, 5, 40])
    bi = brute_build(points_from_arrays(X, [0] * 40), metric)
    for q in queries:
        got = knn_query(index, q, 5, "guaranteed")[0]
        assert [(g.distance, g.point_index) for g in got] == [(b.distance, b.point_index) for b in brute_knn(bi, q, 5)]
