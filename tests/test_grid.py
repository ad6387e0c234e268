import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from gridneighbors import (
    GridParams,
    build,
    cell_points,
    classify,
    fit_cell_measurements,
    hash_cell,
    knn_query,
    load_index,
    points_from_arrays,
    save_index,
)
from gridneighbors.grid import _ARRAY_FIELDS, _max_splits_1d

GOLDEN = Path(__file__).resolve().parent / "data" / "index_v1.ghn"


def _pts(rows):
    rows = np.asarray(rows, dtype=float)
    return points_from_arrays(rows, [0] * rows.shape[0])


def _oracle_max_splits(values):
    distinct = np.unique(values)
    if distinct.size == 1:
        return 1, 1.0
    lo, hi = distinct[0], distinct[-1]
    span = hi - lo
    for s in range(distinct.size, 0, -1):
        bins = np.minimum(np.floor((distinct - lo) * s / span), s - 1)
        if np.unique(bins).size == s:
            return s, span / s
    raise AssertionError("s=1 always has full occupancy")


class TestFitCellMeasurements:
    def test_seven_and_eight_splits(self):
        # Dimension 1 supports at most 7 splits, dimension 2 at most 8:
        # widths come out as (range1/7, range2/8).
        X = np.column_stack([[0.0, 1, 2, 3, 4, 5, 6, 6], np.arange(8.0)])
        params = fit_cell_measurements(points_from_arrays(X, [0] * 8))
        assert list(params.splits) == [7, 8]
        r1 = X[:, 0].max() - X[:, 0].min()
        r2 = X[:, 1].max() - X[:, 1].min()
        assert params.widths[0] == pytest.approx(r1 / 7)
        assert params.widths[1] == pytest.approx(r2 / 8)

    def test_four_values(self):
        params = fit_cell_measurements(_pts([[0.0], [1.0], [2.0], [3.0]]))
        assert params.splits[0] == 4
        assert params.widths[0] == pytest.approx(0.75)

    def test_constant_feature(self):
        params = fit_cell_measurements(_pts([[5.0], [5.0], [5.0]]))
        assert params.splits[0] == 1
        assert params.widths[0] == 1.0

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            fit_cell_measurements(points_from_arrays(np.zeros((0, 2)), []))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 50))
            kind = int(rng.integers(0, 3))
            if kind == 0:
                v = rng.normal(0, 5, n)
            elif kind == 1:
                v = rng.integers(-4, 5, n).astype(float)
            else:
                v = np.concatenate([rng.uniform(0, 1, n), rng.uniform(20, 21, 2)])
            assert _max_splits_1d(v) == _oracle_max_splits(v)

    def test_occupancy_at_s_and_failure_at_s_plus_1(self, rng):
        for _ in range(60):
            v = rng.normal(0, 3, int(rng.integers(3, 40)))
            distinct = np.unique(v)
            s, w = _max_splits_1d(v)
            lo, span = distinct[0], distinct[-1] - distinct[0]
            bins = np.minimum(np.floor((distinct - lo) * s / span), s - 1)
            assert np.unique(bins).size == s
            if s < distinct.size:
                bins1 = np.minimum(np.floor((distinct - lo) * (s + 1) / span), s)
                assert np.unique(bins1).size < s + 1

    def test_permutation_invariant(self, rng):
        X = rng.normal(0, 2, (60, 3))
        a = fit_cell_measurements(points_from_arrays(X, [0] * 60))
        perm = rng.permutation(60)
        b = fit_cell_measurements(points_from_arrays(X[perm], [0] * 60))
        assert np.array_equal(a.widths, b.widths)
        assert np.array_equal(a.splits, b.splits)

    def test_widths_cover_range(self, rng):
        X = rng.uniform(-7, 13, (80, 2))
        params = fit_cell_measurements(points_from_arrays(X, [0] * 80))
        spans = X.max(axis=0) - X.min(axis=0)
        assert np.all(params.widths * params.splits >= spans - 1e-9)


class TestHashCell:
    def test_floor_of_coordinates(self):
        params = GridParams([1.0, 1.0], [0.0, 0.0], [1, 1])
        assert hash_cell((2.5, 3.7), params) == (2, 3)

    def test_origin(self):
        params = GridParams([0.3, 2.0, 5.0], [0.0] * 3, [1] * 3)
        assert hash_cell((0, 0, 0), params) == (0, 0, 0)

    def test_negative_floors_toward_minus_infinity(self):
        params = GridParams([1.0], [0.0], [1])
        assert hash_cell((-0.5,), params) == (-1,)

    def test_dimension_mismatch(self):
        params = GridParams([1.0], [0.0], [1])
        with pytest.raises(ValueError):
            hash_cell((1.0, 2.0), params)

    def test_cell_id_past_bound_rejected(self):
        # The same checked rule as build and knn_query, not a 300-digit int.
        params = GridParams([1.0], [0.0], [1])
        with pytest.raises(ValueError, match=r"2\*\*62"):
            hash_cell((1e300,), params)


class TestBuild:
    def test_single_point(self):
        index = build(_pts([[2.0, 3.0]]))
        assert index.cell_array.tolist() == [list(hash_cell((2.0, 3.0), index.params))]
        assert index.offsets.tolist() == [0, 1] and index.order.tolist() == [0]

    def test_recount_and_roundtrip(self, rng):
        X = rng.normal(0, 3, (200, 2))
        index = build(points_from_arrays(X, [0] * 200))
        assert index.offsets[-1] == 200
        assert len(index.cell_array) <= 200
        assert sorted(index.order.tolist()) == list(range(200))
        for i, x in enumerate(X):
            assert i in cell_points(index, hash_cell(x, index.params))

    def test_buckets_preserve_input_order(self):
        X = np.array([[0.1], [0.2], [0.15], [1.5]])
        index = build(points_from_arrays(X, [0] * 4), params=GridParams([1.0], [0.0], [1]))
        assert cell_points(index, (0,)) == [0, 1, 2]
        assert cell_points(index, np.array([1])) == [3]

    def test_cell_points_absent(self):
        index = build(_pts([[1.0, 1.0]]), params=GridParams([1.0, 1.0], [0.0, 0.0], [1, 1]))
        assert cell_points(index, (1, 1)) == [0]
        # A non-integer cell is not truncated to the occupied cell (1, 1).
        for cell in [(99, 99), (1.9, 1), (1, 1.5), (2**70, 1), (float("nan"), 1)]:
            assert cell_points(index, cell) == []
        for cell in [(1,), (1, 1, 1), ()]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                cell_points(index, cell)


class TestSerialization:
    def test_save_load_save_is_byte_identical(self, rng, tmp_path):
        X = rng.normal(0, 2, (120, 3))
        index = build(points_from_arrays(X, rng.integers(0, 3, 120)))
        p1 = tmp_path / "a.ghn"
        p2 = tmp_path / "b.ghn"
        save_index(index, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_index_answers_identically(self, rng, tmp_path):
        from gridneighbors import knn_query

        X = rng.normal(0, 2, (150, 2))
        index = build(points_from_arrays(X, rng.integers(0, 3, 150)))
        path = tmp_path / "idx.ghn"
        save_index(index, path)
        loaded = load_index(path)
        q = X[7] + 0.05
        a, _ = knn_query(index, q, 5, "guaranteed")
        b, _ = knn_query(loaded, q, 5, "guaranteed")
        assert [(n.distance, n.point_index) for n in a] == [(n.distance, n.point_index) for n in b]

    @pytest.mark.parametrize("kind", ["int", "float", "str"])
    def test_loaded_index_returns_the_same_python_labels(self, rng, tmp_path, kind):
        X = rng.normal(0, 2, (200, 2))
        y = rng.integers(0, 3, 200)
        labels = {"int": y.tolist(), "float": (y / 2).tolist(), "str": [f"c{v}" for v in y]}[kind]
        index = build(points_from_arrays(X, labels))
        save_index(index, tmp_path / "idx.ghn")
        loaded = load_index(tmp_path / "idx.ghn")
        assert isinstance(loaded.labels, np.ndarray) and not loaded.labels.flags.writeable
        for q in X[:20] + 0.05:
            for mode in ("heuristic", "guaranteed"):
                a, _ = knn_query(index, q, 3, mode)
                b, _ = knn_query(loaded, q, 3, mode)
                assert a == b
                assert [type(n.label) for n in b] == [type(v) for v in labels[:3]]
                assert json.loads(json.dumps(classify(b).value)) == classify(a).value

    def test_label_dtype_outside_the_point_set_rule_rejected(self, rng, tmp_path):
        index = build(points_from_arrays(rng.normal(0, 2, (30, 2)), rng.integers(0, 3, 30)))
        save_index(index, tmp_path / "idx.ghn")
        data = (tmp_path / "idx.ghn").read_bytes()
        (blob_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + blob_len])
        assert header["arrays"]["labels"]["dtype"] == "<i8"
        header["arrays"]["labels"]["dtype"] = "<M8[s]"  # same item size: only the kind is wrong
        blob = json.dumps(header, sort_keys=True).encode()
        path = tmp_path / "dated.ghn"
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len :])
        with pytest.raises(ValueError, match="dated.ghn: labels has dtype"):
            load_index(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ghn"
        path.write_bytes(b"not an index")
        with pytest.raises(ValueError):
            load_index(path)


class TestCellCoords:
    def _check_built_by_first_query(self, index):
        assert "cell_coords" not in vars(index)
        knn_query(index, index.coords[0], 3)
        block = vars(index)["cell_coords"]
        knn_query(index, index.coords[1] + 0.5, 3, "guaranteed")
        assert index.cell_coords is block
        assert not block.flags.writeable
        assert block.dtype == index.coords.dtype
        assert np.array_equal(block, index.coords[index.order].T)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_built_by_first_query_and_reused(self, rng):
        X = rng.normal(0, 2, (200, 3))
        self._check_built_by_first_query(build(points_from_arrays(X, [0] * 200)))

    def test_loaded_index_builds_it_the_same_way(self, rng, tmp_path):
        X = rng.normal(0, 2, (200, 3))
        built = build(points_from_arrays(X, [0] * 200))
        save_index(built, tmp_path / "idx.ghn")
        loaded = load_index(tmp_path / "idx.ghn")
        self._check_built_by_first_query(loaded)
        assert np.array_equal(loaded.cell_coords, built.cell_coords)


def _golden_data():
    rng = np.random.default_rng(2020)
    X = np.round(rng.normal(0, 2, (40, 2)), 3)
    return X, rng.integers(0, 3, 40)


def _regions(data: bytes) -> dict:
    """Byte range of each array in an index file, from its header."""
    (blob_len,) = struct.unpack("<I", data[8:12])
    header = json.loads(data[12 : 12 + blob_len])
    pos, out = 12 + blob_len, {}
    for name in _ARRAY_FIELDS:
        meta = header["arrays"][name]
        size = np.dtype(meta["dtype"]).itemsize * int(np.prod(meta["shape"]))
        out[name] = (pos, pos + size)
        pos += size
    return out


class TestIndexFileChecks:
    def test_golden_file_loads_and_rebuilds_byte_identically(self, tmp_path):
        # tests/data/index_v1.ghn was written by the bucket-list layout
        # that preceded CSR; the format must not change.
        X, y = _golden_data()
        loaded = load_index(GOLDEN)
        built = build(points_from_arrays(X, y))
        save_index(built, tmp_path / "built.ghn")
        save_index(loaded, tmp_path / "resaved.ghn")
        assert (tmp_path / "built.ghn").read_bytes() == GOLDEN.read_bytes()
        assert (tmp_path / "resaved.ghn").read_bytes() == GOLDEN.read_bytes()
        for q in [(0.1, -0.2), (3.0, 3.0), (-40.0, 7.0)]:
            for mode in ("heuristic", "guaranteed"):
                a, sa = knn_query(loaded, q, 4, mode)
                b, sb = knn_query(built, q, 4, mode)
                assert [(n.distance, n.point_index, n.label) for n in a] == [
                    (n.distance, n.point_index, n.label) for n in b
                ]
                assert sa == sb

    def test_truncated_file_rejected_naming_the_path(self, tmp_path):
        data = GOLDEN.read_bytes()
        path = tmp_path / "cut.ghn"
        for cut in range(0, len(data), 7):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="cut.ghn"):
                load_index(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ghn"
        path.write_bytes(GOLDEN.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="long.ghn"):
            load_index(path)

    @pytest.mark.parametrize("region", ["offsets", "order"])
    def test_every_flipped_byte_in_csr_arrays_rejected(self, tmp_path, region):
        # One point per cell: offsets are 0..n, so any change to one entry
        # breaks the strict rise; any change to a permutation breaks it.
        X = np.arange(30.0).reshape(-1, 1)
        index = build(points_from_arrays(X, [0] * 30), params=GridParams([1.0], [0.0], [30]))
        good = tmp_path / "good.ghn"
        save_index(index, good)
        data = good.read_bytes()
        start, end = _regions(data)[region]
        path = tmp_path / "flipped.ghn"
        for pos in range(start, end):
            path.write_bytes(data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1 :])
            with pytest.raises(ValueError, match="flipped.ghn"):
                load_index(path)

    def test_unsorted_cell_ids_rejected(self, tmp_path):
        data = bytearray(GOLDEN.read_bytes())
        start, end = _regions(bytes(data))["cell_ids"]
        cells = np.frombuffer(bytes(data[start:end]), dtype="<i8").reshape(-1, 2)
        data[start:end] = cells[::-1].tobytes()
        path = tmp_path / "unsorted.ghn"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="cell ids"):
            load_index(path)


class TestCellIdBounds:
    def test_build_rejects_cell_ids_past_int64(self, rng):
        # A constant feature gets width 1, so its cell id is the value itself.
        X = np.column_stack([rng.normal(size=50), np.full(50, 1e20)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="2\\*\\*62"):
                build(points_from_arrays(X, [0] * 50))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_query_error_names_the_query(self):
        index = build(_pts([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="query .*2\\*\\*62"):
            knn_query(index, [1e30], 1)
