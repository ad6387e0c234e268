"""Differential test: the CSR query against the frozen layer-by-layer walk.

Both must return the same neighbors (distance, index, label) and the same
QueryStats, in both modes and for every metric.
"""

import numpy as np
import pytest

from gridneighbors import METRICS, STOP_MODES, GridParams, build, knn_query, points_from_arrays
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
