"""Property test of the grid query on adversarial data.

guaranteed must return exactly brute force's neighbours; heuristic must
return the neighbours and QueryStats of the frozen layer-by-layer walk in
reference_knn. The data are integer lattices queried on cell edges and
1e-12 off them, heavy duplicates, and sets with one constant dimension.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridneighbors import METRICS, GridParams, brute_build, brute_knn, build, knn_query, points_from_arrays
from gridneighbors import explore
from reference_knn import BucketIndex
from reference_knn import knn_query as reference_knn_query

EDGE = st.sampled_from([-1e-12, 0.0, 1e-12])


@st.composite
def lattices(draw):
    """Integer points, cells of width w holding up to w**d of them, and a query on a cell edge."""
    d = draw(st.integers(1, 3))
    side = draw(st.integers(2, {1: 30, 2: 8, 3: 5}[d]))
    w = draw(st.integers(1, 3))
    X = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * d), -1).reshape(-1, d)
    q = np.array([w * draw(st.integers(-1, side // w + 1)) + draw(EDGE) for _ in range(d)])
    return X, GridParams([float(w)] * d, [max(1, side // w)] * d), q


@st.composite
def duplicates(draw):
    """Many copies of a few distinct points; the query sits on one of them or 1e-12 off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    distinct = np.round(rng.normal(0, 3, (draw(st.integers(1, 6)), d)), 1)
    X = distinct[rng.integers(0, len(distinct), draw(st.integers(2, 150)))]
    q = distinct[draw(st.integers(0, len(distinct) - 1))] + np.array([draw(EDGE) for _ in range(d)])
    return X, None, q


@st.composite
def constant_dimension(draw):
    """Points whose dimension j is one constant c; the query's is c, c +- 1e-12 or far from c."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 3))
    j = draw(st.integers(0, d - 1))
    c = draw(st.sampled_from([0.0, -7.5, 1e6]))
    X = rng.normal(0, 5, (draw(st.integers(2, 150)), d))
    X[:, j] = c
    q = rng.normal(0, 6, d)
    q[j] = c + draw(st.sampled_from([-1e-12, 0.0, 1e-12, 3.0]))
    return X, None, q


def _pairs(neighbors):
    return [(n.distance, n.point_index) for n in neighbors]


@settings(max_examples=300, deadline=None)
@given(st.one_of(lattices(), duplicates(), constant_dimension()), st.sampled_from(METRICS), st.data())
def test_guaranteed_is_brute_force_and_heuristic_is_the_reference_walk(case, metric, data):
    X, params, q = case
    n = X.shape[0]
    k = data.draw(st.integers(1, n), label="k")
    points = points_from_arrays(X, np.arange(n) % 3)
    index = build(points, metric, params=params)

    got, _ = knn_query(index, q, k, "guaranteed")
    assert _pairs(got) == _pairs(brute_knn(brute_build(points, metric), q, k))

    got, stats = knn_query(index, q, k, "heuristic")
    want, want_stats = reference_knn_query(BucketIndex(index), q, k, "heuristic")
    assert (_pairs(got), stats) == (_pairs(want), want_stats)


def test_lattice_reads_both_one_cell_and_multi_cell_layers(monkeypatch):
    # Width-2 cells of a 6x6 lattice and a query 1e-12 inside cell (0, 1):
    # layer 0 is that one cell (a slice of the cell-ordered block), layers
    # 1 and 2 span five and three cells (column gathers).
    seen = []
    positions = explore._positions

    def spy(offsets, cells):
        pos = positions(offsets, cells)
        seen.append(isinstance(pos, slice))
        return pos

    monkeypatch.setattr(explore, "_positions", spy)
    X = np.stack(np.meshgrid(*[np.arange(6.0)] * 2), -1).reshape(-1, 2)
    points = points_from_arrays(X, [0] * 36)
    index = build(points, params=GridParams([2.0, 2.0], [3, 3]))
    q = np.array([2.0 - 1e-12, 2.0])
    got, _ = knn_query(index, q, 36, "guaranteed")
    assert _pairs(got) == _pairs(brute_knn(brute_build(points), q, 36))
    assert True in seen and False in seen
