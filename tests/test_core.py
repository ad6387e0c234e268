import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridneighbors import METRICS, Neighbor, NeighborBuffer, distance
from gridneighbors.core import ordering_keys


class TestDistance:
    def test_euclidean_345(self):
        assert distance((0, 0), (3, 4), "euclidean") == 5.0

    def test_identity(self):
        for metric in ("euclidean", "manhattan", "chebyshev"):
            assert distance((1, 1), (1, 1), metric) == 0.0

    def test_manhattan(self):
        assert distance((0, 0), (3, 4), "manhattan") == 7.0

    def test_chebyshev(self):
        assert distance((0, 0), (3, 4), "chebyshev") == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distance((0, 0), (1, 2, 3))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance((0,), (1,), "cosine")

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.data(),
        st.sampled_from(["euclidean", "manhattan", "chebyshev"]),
    )
    def test_symmetry_and_identity(self, a, data, metric):
        b = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(a), max_size=len(a)))
        assert distance(a, b, metric) == distance(b, a, metric)
        assert distance(a, a, metric) == 0.0



def _left_to_right(q, rows, metric):
    """Ordering keys of the rows, each accumulated left to right in Python floats."""
    keys = []
    for row in rows.tolist():
        key = 0.0
        for a, b in zip(row, q.tolist()):
            t = abs(a - b)
            if metric == "chebyshev":
                key = max(key, t)
            else:
                key += t * t if metric == "euclidean" else t
        keys.append(key)
    return np.array(keys)


class TestOrderingKeys:
    # numpy sums along a contiguous row pairwise from 8 columns on, so
    # d = 8 and 9 are where a row sum of a C-order matrix would differ.
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("d", range(1, 10))
    def test_keys_do_not_depend_on_layout(self, rng, metric, d):
        for m in (1, 2, 7, 40):
            pts = rng.normal(0, 1, (m, d)) * rng.uniform(0.1, 1e3, d)
            q = rng.normal(0, 10, d)
            want = _left_to_right(q, pts, metric)
            rows = rng.permutation(m)[: max(1, m // 3)]
            layouts = {
                "C order": (pts, want),
                "F order": (np.asfortranarray(pts), want),
                "transposed view": (np.ascontiguousarray(pts.T).T, want),
                "row subset": (pts[rows], want[rows]),
                "column take": (np.ascontiguousarray(pts.T).take(rows, axis=1).T, want[rows]),
                "one row": (pts[-1:], want[-1:]),
            }
            for name, (block, expected) in layouts.items():
                assert np.array_equal(ordering_keys(q, block, metric), expected), (name, m)


def _oracle_topk(pushes, k):
    return sorted(pushes)[:k]


class TestNeighborBuffer:
    def test_fills_then_replaces(self):
        buf = NeighborBuffer(3)
        for i, d in enumerate([5.0, 2.0, 9.0]):
            assert buf.push(Neighbor(d, i))
        assert buf.push(Neighbor(4.0, 3))
        assert [n.distance for n in buf.neighbors()] == [2.0, 4.0, 5.0]

    def test_rejects_worse(self):
        buf = NeighborBuffer(3)
        for i, d in enumerate([2.0, 4.0, 5.0]):
            buf.push(Neighbor(d, i))
        assert not buf.push(Neighbor(7.0, 3))
        assert [n.distance for n in buf.neighbors()] == [2.0, 4.0, 5.0]

    def test_ties_keep_lowest_indices(self):
        buf = NeighborBuffer(2)
        for i in (3, 1, 2):
            buf.push(Neighbor(1.0, i))
        assert [n.point_index for n in buf.neighbors()] == [1, 2]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            NeighborBuffer(0)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.integers(0, 50)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 8),
    )
    def test_matches_sort_and_truncate_oracle(self, pushes, k):
        # Distinct indices: a real push stream never repeats a point.
        pushes = [(d, i) for i, (d, _) in enumerate(pushes)]
        buf = NeighborBuffer(k)
        for d, i in pushes:
            buf.push(Neighbor(d, i))
        got = [(n.distance, n.point_index) for n in buf.neighbors()]
        assert got == _oracle_topk(pushes, k)

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=40),
        st.integers(1, 8),
    )
    def test_accepted_iff_contents_change(self, dists, k):
        buf = NeighborBuffer(k)
        for i, d in enumerate(dists):
            before = [(n.distance, n.point_index) for n in buf.neighbors()]
            accepted = buf.push(Neighbor(d, i))
            after = [(n.distance, n.point_index) for n in buf.neighbors()]
            assert accepted == (before != after)

    @settings(max_examples=300)
    @given(st.data(), st.integers(1, 8))
    def test_batched_offers_match_sort_and_truncate(self, data, k):
        # Few distinct keys, so ties with the kth key are common. A stream
        # position maps to a point index through a permutation, which a
        # batch passes directly, or as positions (an array or a slice)
        # with the permutation as the lookup, as the grid query does.
        keys = data.draw(st.lists(st.integers(0, 12).map(float), min_size=1, max_size=60))
        m = len(keys)
        ids = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
        cuts = data.draw(st.lists(st.integers(0, m), max_size=8))
        bounds = sorted({0, m, *cuts})
        buf = NeighborBuffer(k)
        for a, b in zip(bounds, bounds[1:]):
            batch = np.array(keys[a:b])
            how = data.draw(st.sampled_from(["ids", "positions", "slice"]))
            before = [(n.distance, n.point_index) for n in buf.neighbors()]
            if how == "ids":
                changed = buf.offer(batch, ids[a:b])
            elif how == "positions":
                changed = buf.offer(batch, np.arange(a, b), ids)
            else:
                changed = buf.offer(batch, slice(a, b), ids)
            after = [(n.distance, n.point_index) for n in buf.neighbors()]
            assert changed == (before != after)
            assert after == _oracle_topk(list(zip(keys[:b], ids[:b].tolist())), k)
