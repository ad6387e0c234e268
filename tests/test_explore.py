import signal
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import as_pairs, clustered, uniform
from gridneighbors import (
    GridParams,
    brute_build,
    brute_knn,
    build,
    knn_query,
    layer_cell_count,
    layer_cells,
    points_from_arrays,
    total_cell_count,
)


class TestLayerGeometry:
    def test_first_layer_2d_has_8_cells(self):
        assert len(layer_cells((0, 0), 1)) == 8
        assert layer_cell_count(1, 2) == 8

    def test_second_layer_2d_has_16_cells(self):
        assert len(layer_cells((0, 0), 2)) == 16
        assert layer_cell_count(2, 2) == 16

    def test_layer_zero_is_center(self):
        assert layer_cells((4, -2, 7), 0) == {(4, -2, 7)}

    def test_l3_d4_count(self):
        assert layer_cell_count(3, 4) == 7**4 - 5**4 == 1776
        assert len(layer_cells((0, 0, 0, 0), 3)) == 1776

    def test_total_counts(self):
        assert total_cell_count(1, 3) == 3**3 - 1
        assert total_cell_count(2, 2) == 24 == 8 + 16
        assert total_cell_count(0, 5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            layer_cell_count(0, 2)
        with pytest.raises(ValueError):
            total_cell_count(-1, 2)
        with pytest.raises(ValueError):
            layer_cells((0,), -1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_enumeration_matches_formulas(self, d):
        center = tuple([3] * d)
        seen = set()
        for l in range(1, 4):
            shell = layer_cells(center, l)
            assert len(shell) == layer_cell_count(l, d)
            assert not (shell & seen)
            seen |= shell
            assert len(seen) == total_cell_count(l, d)
        # union over l <= L plus center is the full (2L+1)^d hypercube
        assert len(seen | {center}) == 7**d


def _walkthrough_index():
    # 2-d scenario: 1 point in the query's cell, three more on layer 1,
    # farther points on layers 2 and 4 that never enter the top 3.
    X = np.array(
        [
            [5.4, 5.4],   # central cell (5, 5)
            [4.2, 5.5],   # layer 1, cell (4, 5)
            [6.7, 5.5],   # layer 1, cell (6, 5)
            [5.5, 6.9],   # layer 1, cell (5, 6)
            [7.9, 7.9],   # layer 2
            [9.5, 9.5],   # layer 4
        ]
    )
    pts = points_from_arrays(X, [0, 0, 1, 1, 1, 0])
    return build(pts, params=GridParams([1.0, 1.0], [0.0, 0.0], [1, 1]))


class TestKnnQuery:
    def test_walkthrough_stops_after_quiet_layer(self):
        index = _walkthrough_index()
        neighbors, stats = knn_query(index, (5.5, 5.5), 3, "heuristic")
        assert len(neighbors) == 3
        assert stats.layers_visited == 2
        assert [n.point_index for n in neighbors] == [0, 2, 1]

    def test_single_point(self):
        index = build(points_from_arrays([[1.0, 2.0]], ["a"]))
        neighbors, _ = knn_query(index, (100.0, 100.0), 1)
        assert [n.point_index for n in neighbors] == [0]
        assert neighbors[0].label == "a"

    def test_k_out_of_range(self):
        index = build(points_from_arrays([[0.0], [1.0]], [0, 1]))
        with pytest.raises(ValueError):
            knn_query(index, (0.5,), 3)
        with pytest.raises(ValueError):
            knn_query(index, (0.5,), 0)

    def test_dimension_mismatch(self):
        index = build(points_from_arrays([[0.0], [1.0]], [0, 1]))
        with pytest.raises(ValueError):
            knn_query(index, (0.5, 0.5), 1)

    def test_bad_mode(self):
        index = build(points_from_arrays([[0.0], [1.0]], [0, 1]))
        with pytest.raises(ValueError):
            knn_query(index, (0.5,), 1, "fast")

    def test_guaranteed_equals_brute(self, rng):
        for trial in range(40):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(50, 1500))
            pts, X = (clustered if trial % 2 else uniform)(rng, n, d)
            index = build(pts)
            bi = brute_build(pts)
            for q in (X[int(rng.integers(0, n))] + rng.normal(0, 0.3, d), rng.uniform(-120, 120, d)):
                k = min(int(rng.choice([1, 3, 10])), n)
                got, stats = knn_query(index, q, k, "guaranteed")
                want = brute_knn(bi, q, k)
                assert as_pairs(got) == as_pairs(want)
                assert stats.points_scanned <= n

    def test_result_independent_of_point_order(self, rng):
        # Shuffling the training data permutes intra-cell and intra-layer
        # visit order; the selected coordinate set must not change.
        X = rng.normal(50, 5, (300, 2))
        q = X[0] + 0.1
        base = None
        for _ in range(3):
            perm = rng.permutation(300)
            index = build(points_from_arrays(X[perm], [0] * 300))
            got, _ = knn_query(index, q, 5, "guaranteed")
            coords = sorted((n.distance, tuple(index.coords[n.point_index])) for n in got)
            if base is None:
                base = coords
            assert coords == base

    def test_distances_non_decreasing_and_stats(self, rng):
        pts, X = clustered(rng, 400, 3)
        index = build(pts)
        got, stats = knn_query(index, X[5] + 0.2, 7)
        dists = [n.distance for n in got]
        assert dists == sorted(dists)
        assert all(d >= 0 for d in dists)
        assert stats.cells_visited <= (2 * stats.layers_visited + 1) ** 3
        assert stats.points_scanned <= 400

    def test_denser_data_visits_fewer_layers(self, rng):
        # With a fixed grid and a growing dense cloud, exploration depth
        # does not increase. Widths are pinned: refitting on the larger
        # sample would refine the grid and confound the density effect.
        q = np.array([0.0, 0.0])
        params = GridParams([0.5, 0.5], [-10.0, -10.0], [40, 40])
        depths = []
        for n in (500, 4000, 32000):
            X = rng.uniform(-10, 10, (n, 2))
            index = build(points_from_arrays(X, [0] * n), params=params)
            _, stats = knn_query(index, q, 5)
            depths.append(stats.layers_visited)
        assert depths == sorted(depths, reverse=True)

    def test_outlier_query_terminates(self, rng):
        pts, _ = clustered(rng, 200, 2)
        index = build(pts)
        for mode in ("heuristic", "guaranteed"):
            got, _ = knn_query(index, (1e5, -1e5), 3, mode)
            assert len(got) == 3


@contextmanager
def _deadline(seconds):
    """Fail a call that runs past `seconds` instead of hanging the suite.

    Uses the process's interval timer: no thread or subprocess is started.
    """

    def expire(signum, frame):
        raise TimeoutError(f"query ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestQueryBoundaries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1e300])
    @pytest.mark.parametrize("mode", ["heuristic", "guaranteed"])
    def test_non_finite_and_huge_queries_rejected(self, rng, bad, mode):
        pts, _ = clustered(rng, 200, 2)
        index = build(pts)
        with _deadline(5), pytest.raises(ValueError):
            knn_query(index, (bad, 1.0), 3, mode)

    @pytest.mark.parametrize("mode", ["heuristic", "guaranteed"])
    def test_far_query_skips_empty_layers(self, rng, mode):
        # 1e12 lies about 1e11 cell widths from the data: walking the
        # empty layers one by one would never finish.
        pts, _ = clustered(rng, 300, 2)
        index = build(pts)
        bi = brute_build(pts)
        for q in ((1e5, 1e5), (1e12, -1e12), (-3e13, 2.5)):
            with _deadline(5):
                got, _ = knn_query(index, q, 3, mode)
            assert len(got) == 3
            if mode == "guaranteed":
                assert as_pairs(got) == as_pairs(brute_knn(bi, q, 3))
