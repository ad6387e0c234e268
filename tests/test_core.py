import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridneighbors import METRICS, Neighbor, NeighborBuffer, distance
from gridneighbors.core import ordering_keys
from helpers import held


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


def _offer_one(buf, key, i):
    return buf.offer(np.array([key]), np.array([i]))


class TestNeighborBuffer:
    def test_fills_then_replaces(self):
        buf = NeighborBuffer(3)
        for i, d in enumerate([5.0, 2.0, 9.0]):
            assert _offer_one(buf, d, i)
        assert _offer_one(buf, 4.0, 3)
        assert [key for key, _ in held(buf)] == [2.0, 4.0, 5.0]

    def test_rejects_worse(self):
        buf = NeighborBuffer(3)
        for i, d in enumerate([2.0, 4.0, 5.0]):
            _offer_one(buf, d, i)
        assert not _offer_one(buf, 7.0, 3)
        assert [key for key, _ in held(buf)] == [2.0, 4.0, 5.0]

    def test_ties_keep_lowest_indices(self):
        buf = NeighborBuffer(2)
        for i in (3, 1, 2):
            _offer_one(buf, 1.0, i)
        assert [i for _, i in held(buf)] == [1, 2]

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
            _offer_one(buf, d, i)
        assert held(buf) == _oracle_topk(pushes, k)

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=40),
        st.integers(1, 8),
    )
    def test_accepted_iff_contents_change(self, dists, k):
        buf = NeighborBuffer(k)
        for i, d in enumerate(dists):
            before = held(buf)
            accepted = _offer_one(buf, d, i)
            assert accepted == (before != held(buf))

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
            before = held(buf)
            if how == "ids":
                changed = buf.offer(batch, ids[a:b])
            elif how == "positions":
                changed = buf.offer(batch, np.arange(a, b), ids)
            else:
                changed = buf.offer(batch, slice(a, b), ids)
            after = held(buf)
            assert changed == (before != after)
            assert after == _oracle_topk(list(zip(keys[:b], ids[:b].tolist())), k)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("full", [False, True])
    def test_8k_candidates_sort_whole_and_more_are_prefiltered(self, monkeypatch, rng, k, extra, full):
        # Up to 8k candidates go to one lexsort; past that, np.partition
        # first drops the keys worse than their kth. Keys 0..3 tie often,
        # the kth key among them, so the ties must break toward the lower
        # point index either way. Point indices come through a lookup.
        m = 8 * k + extra
        keys = rng.integers(0, 4, m).astype(float)
        lookup = rng.permutation(10 * m)
        pos = rng.permutation(10 * m)[:m]
        pushes = []
        buf = NeighborBuffer(k)
        if full:
            pushes = [(2.0, int(i)) for i in lookup[-k:]]
            buf.offer(np.full(k, 2.0), np.arange(10 * m - k, 10 * m), lookup)
        partitions = []
        partition = np.partition
        monkeypatch.setattr(np, "partition", lambda *args: partitions.append(1) or partition(*args))
        before = held(buf)
        changed = buf.offer(keys, pos, lookup)
        want = _oracle_topk(pushes + list(zip(keys.tolist(), lookup[pos].tolist())), k)
        assert held(buf) == want and changed == (before != want)
        assert (keys == sorted(keys.tolist())[k - 1]).sum() > 1  # the kth key ties
        survivors = int((keys <= 2.0).sum()) if full else m  # a full buffer first drops keys past its kth
        assert len(partitions) == (survivors > 8 * k)


@dataclasses.dataclass(frozen=True)
class _GeneratedNeighbor:
    """Neighbor with the __init__ that the dataclass decorator writes: the reference."""

    distance: float
    point_index: int
    label: object = None


class TestNeighbor:
    """Neighbor's own __init__ keeps every behaviour of the generated one."""

    @pytest.mark.parametrize("args", [(0.5, 3, "a"), (0.5, 3, None), (0.0, 0, 1), (2.25, 7, (1, 2)), (1.0, 2, 1.5)])
    def test_equality_hash_and_repr(self, args):
        n, ref = Neighbor(*args), _GeneratedNeighbor(*args)
        assert n == Neighbor(*args) and hash(n) == hash(Neighbor(*args)) == hash(ref)
        assert repr(n) == repr(ref).replace("_GeneratedNeighbor", "Neighbor")
        assert vars(n) == vars(ref) and dataclasses.astuple(n) == args and n.key == args[:2]
        assert n != Neighbor(args[0], args[1] + 1, args[2]) and n != Neighbor(args[0] + 1, *args[1:])
        assert n != ref  # the generated __eq__ compares classes first

    def test_keywords_default_label_and_bad_arguments(self):
        assert Neighbor(distance=1.0, point_index=2) == Neighbor(1.0, 2) == Neighbor(1.0, 2, None)
        assert Neighbor(1.0, point_index=2, label="x") == Neighbor(1.0, 2, "x")
        for args, kwargs in [((1.0,), {}), ((1.0, 2, 3, 4), {}), ((1.0, 2), {"colour": 3}), ((1.0, 2), {"distance": 1.0})]:
            with pytest.raises(TypeError):
                Neighbor(*args, **kwargs)
            with pytest.raises(TypeError):
                _GeneratedNeighbor(*args, **kwargs)

    def test_frozen(self):
        n = Neighbor(1.0, 2, "x")
        for name in ("distance", "point_index", "label", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(n, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del n.label
        assert n == Neighbor(1.0, 2, "x")

    def test_replace_copy_and_pickle(self):
        n = Neighbor(1.5, 4, "y")
        assert dataclasses.replace(n, label="z") == Neighbor(1.5, 4, "z")
        assert dataclasses.replace(n) == n and type(dataclasses.replace(n)) is Neighbor
        assert [f.name for f in dataclasses.fields(n)] == ["distance", "point_index", "label"]
        for m in [copy.copy(n), copy.deepcopy(n)] + [
            pickle.loads(pickle.dumps(n, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]:
            assert m == n and type(m) is Neighbor and hash(m) == hash(n) and vars(m) == vars(n)
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.label = "w"
