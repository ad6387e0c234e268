import numpy as np
import pytest

from helpers import as_pairs, clustered, uniform
from gridneighbors import (
    NeighborBuffer,
    brute_build,
    brute_knn,
    build,
    kdtree_build,
    kdtree_knn,
    knn_query,
    points_from_arrays,
)


class TestBruteKnn:
    def test_k_equals_n_returns_all_sorted(self, rng):
        pts, X = uniform(rng, 30, 2)
        got = brute_knn(brute_build(pts), X[0], 30)
        dists = [n.distance for n in got]
        assert dists == sorted(dists)
        assert sorted(n.point_index for n in got) == list(range(30))

    def test_nearest_in_circle(self):
        X = np.array([[0.0, 0.1], [0.2, 0.0], [-0.1, -0.1], [5.0, 5.0], [6.0, -4.0]])
        got = brute_knn(brute_build(points_from_arrays(X, list("AABBA"))), (0.0, 0.0), 3)
        assert sorted(n.point_index for n in got) == [0, 1, 2]

    def test_kth_distance_monotone_in_k(self, rng):
        pts, X = clustered(rng, 100, 3)
        index = brute_build(pts)
        q = rng.uniform(0, 100, 3)
        for k in range(1, 10):
            a = brute_knn(index, q, k)
            b = brute_knn(index, q, k + 1)
            assert b[-1].distance >= a[-1].distance
            assert as_pairs(b)[:k] == as_pairs(a)

    def test_k_out_of_range(self):
        index = brute_build(points_from_arrays([[0.0]], [0]))
        with pytest.raises(ValueError):
            brute_knn(index, (0.0,), 2)


class TestKdTree:
    def test_single_point(self):
        tree = kdtree_build(points_from_arrays([[3.0, 4.0]], ["x"]))
        got = kdtree_knn(tree, (0.0, 0.0), 1)
        assert got[0].point_index == 0
        assert got[0].distance == 5.0

    def test_leaf_size_n_degenerates_to_scan(self, rng):
        pts, X = uniform(rng, 50, 3)
        tree = kdtree_build(pts, leaf_size=50)
        brute = brute_build(pts)
        q = rng.uniform(-60, 60, 3)
        assert as_pairs(kdtree_knn(tree, q, 5)) == as_pairs(brute_knn(brute, q, 5))

    def test_duplicate_points(self):
        X = np.zeros((40, 2))
        tree = kdtree_build(points_from_arrays(X, [0] * 40), leaf_size=4)
        got = kdtree_knn(tree, (0.1, 0.1), 5)
        assert [n.point_index for n in got] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_equals_brute_force(self, rng, metric):
        for trial in range(60):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(2, 120))
            pts, X = (clustered if trial % 2 else uniform)(rng, n, d)
            tree = kdtree_build(pts, metric, leaf_size=int(rng.integers(1, 20)))
            brute = brute_build(pts, metric)
            q = rng.uniform(-120, 120, d)
            k = int(rng.integers(1, n + 1))
            assert as_pairs(kdtree_knn(tree, q, k)) == as_pairs(brute_knn(brute, q, k))

    def test_bad_leaf_size(self):
        pts = points_from_arrays([[0.0]], [0])
        with pytest.raises(ValueError):
            kdtree_build(pts, leaf_size=0)
        for bad in (True, 2.5, float("nan"), "3", None):
            with pytest.raises(TypeError, match="leaf_size must be an integer"):
                kdtree_build(pts, leaf_size=bad)
        assert kdtree_build(pts, leaf_size=np.int64(2)).leaf_size == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rejected(bad):
    pts = points_from_arrays(np.arange(40.0).reshape(20, 2), [0] * 20)
    for knn, index in ((brute_knn, brute_build(pts)), (kdtree_knn, kdtree_build(pts, leaf_size=2))):
        with pytest.raises(ValueError, match="non-finite"):
            knn(index, (3.0, bad), 2)


_SEARCHES = {
    "knn_query": (build, lambda index, q, k: knn_query(index, q, k)[0]),
    "brute_knn": (brute_build, brute_knn),
    "kdtree_knn": (kdtree_build, kdtree_knn),
}


@pytest.mark.parametrize("k", [2.5, "3", True, False])
@pytest.mark.parametrize("search", _SEARCHES)
def test_non_integer_k_rejected_before_the_search(search, k):
    make, knn = _SEARCHES[search]
    index = make(points_from_arrays(np.arange(40.0).reshape(20, 2), [0] * 20))
    with pytest.raises(TypeError, match="k must be an integer"):
        knn(index, (3.0, 4.0), k)
    assert len(knn(index, (3.0, 4.0), np.int64(3))) == 3  # numpy integers still pass
    with pytest.raises(TypeError, match="k must be an integer"):
        NeighborBuffer(k)
