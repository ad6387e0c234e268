import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridneighbors
from gridneighbors import (
    GridParams,
    brute_build,
    brute_knn,
    build,
    cell_points,
    classify,
    fit_cell_measurements,
    hash_cell,
    knn_query,
    layer_cell_count,
    load_index,
    points_from_arrays,
    save_index,
)
from gridneighbors import grid
from gridneighbors.grid import _LAYOUT, _MAGIC, _PROBE, _SPLIT_BLOCK, _max_splits_1d
from helpers import regions, rewrite_index
from reference_knn import BucketIndex
from reference_knn import knn_query as reference_knn_query

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "index_v2.ghn"
#: The same index in version 1, which also held origin, the training minima.
GOLDEN_V1 = ROOT / "tests" / "data" / "index_v1.ghn"


def _pts(rows):
    rows = np.asarray(rows, dtype=float)
    return points_from_arrays(rows, [0] * rows.shape[0])


def _oracle_max_splits(values):
    """Exhaustive: bin every distinct value for each s from distinct.size down."""
    distinct = np.unique(values)
    if distinct.size == 1:
        return 1, 1.0
    lo, hi = distinct[0], distinct[-1]
    span = hi - lo
    for s in range(distinct.size, 0, -1):
        if _all_bins_occupied(distinct, lo, span, s):
            return s, span / s
    raise AssertionError("s=1 always has full occupancy")


def _all_bins_occupied(distinct, lo, span, s, chunk=2048):
    # The bins of the sorted values rise from 0 to s - 1, so all s are
    # occupied exactly when no step between neighbours exceeds 1. Checked a
    # chunk at a time, so that most failing s stop early.
    prev = 0.0
    for i in range(0, distinct.size, chunk):
        bins = np.minimum(np.floor((distinct[i : i + chunk] - lo) * s / span), s - 1)
        if bins[0] - prev > 1 or np.diff(bins).max(initial=0) > 1:
            return False
        prev = bins[-1]
    return True


def _loop_max_splits(values):
    """The per-s loop the blocked search replaced, kept as a reference."""
    distinct = np.unique(values)
    if distinct.size == 1:
        return 1, 1.0
    lo = float(distinct[0])
    span = float(distinct[-1] - distinct[0])
    gaps = np.diff(distinct)
    s_hi = min(distinct.size, int(np.ceil(2.0 * span / float(gaps.max()))))
    gaps_asc = np.sort(gaps)
    by_size = np.argsort(gaps, kind="stable")[::-1]
    left = distinct[:-1][by_size]
    right = distinct[1:][by_size]
    for s in range(s_hi, 1, -1):
        cnt = gaps.size - int(np.searchsorted(gaps_asc, span / s, side="right"))
        if cnt == 0:
            return s, span / s
        lb = np.minimum(np.floor((left[:cnt] - lo) * s / span), s - 1)
        rb = np.minimum(np.floor((right[:cnt] - lo) * s / span), s - 1)
        if (rb - lb).max() <= 1:
            return s, span / s
    return 1, span


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


class TestSplitSearchBlocks:
    """The probe-and-verify split search at sizes where its blocks matter, against the oracle."""

    @staticmethod
    def _search(monkeypatch, values):
        """_max_splits_1d(values), then its probes and its verifies as (candidates, start, stop, passed).

        A probe tests a whole block: consecutive candidates down from the
        block's top, _SPLIT_BLOCK // _PROBE of them or down to 2. Every
        other _gaps_pass call verifies survivors.
        """
        probes, verifies = [], []
        gaps_pass = grid._gaps_pass

        def spied(left, right, lo, span, s, cnt, start, stop):
            passed = gaps_pass(left, right, lo, span, s, cnt, start, stop)
            block = s.size == min(_SPLIT_BLOCK // _PROBE, int(s[0]) - 1) and np.all(np.diff(s) == -1)
            (probes if block else verifies).append((s.tolist(), start, stop, passed.tolist()))
            return passed

        with monkeypatch.context() as m:
            m.setattr(grid, "_gaps_pass", spied)
            result = _max_splits_1d(values)
        return result, probes, verifies

    def test_uniform_values_probe_many_candidates_and_verify_few(self, rng, monkeypatch):
        v = rng.uniform(0, 100, 50_000)
        (s, w), probes, verifies = self._search(monkeypatch, v)
        assert (s, w) == _oracle_max_splits(v)
        # ~2,300 candidates lie above the answer, each with ~100-300 wide
        # gaps; the probe reads 8 of them and rejects all but a few.
        top = probes[0][0][0]
        survivors = [c for cands, _, _, passed in probes for c, ok in zip(cands, passed) if ok and c > s]
        assert len(probes) >= 2 and top - s > _SPLIT_BLOCK // _PROBE
        assert all((start, stop) == (0, _PROBE) for _, start, stop, _ in probes)
        assert len(survivors) * 50 < top - s
        assert all(len(cands) * (stop - start) <= _SPLIT_BLOCK for cands, start, stop, _ in verifies)

    def test_lattice_verifies_one_candidate_in_gap_chunks(self, monkeypatch):
        # Every gap is equal and wider than span / s_hi: the top candidate
        # passes its probe, and it counts more gaps than a broadcast holds,
        # so it is verified alone, a chunk of _SPLIT_BLOCK gaps at a time.
        v = np.arange(-25_000, 25_000, dtype=float)
        assert v.size - 1 > _SPLIT_BLOCK
        (s, w), probes, verifies = self._search(monkeypatch, v)
        assert (s, w) == _oracle_max_splits(v) == (v.size, (v.size - 1) / v.size)
        assert len(probes) == 1 and probes[0][0][0] == v.size and probes[0][3][0]
        chunks = [(a, min(a + _SPLIT_BLOCK, v.size - 1)) for a in range(0, v.size - 1, _SPLIT_BLOCK)]
        assert [(cands, start, stop) for cands, start, stop, _ in verifies] == [([v.size], a, b) for a, b in chunks]

    def test_verify_rejects_a_probe_survivor(self, monkeypatch):
        # 15 splits pass the 8 widest gaps but not the ninth: a gap past the
        # probe decides, and the verify goes on down to 12.
        v = np.array([2, 7, 12, 13, 17, 22, 27, 31, 32, 37, 38, 43, 44, 46, 47, 51, 52, 55, 58], dtype=float)
        (s, w), probes, verifies = self._search(monkeypatch, v)
        assert (s, w) == _oracle_max_splits(v) == _loop_max_splits(v) == (12, 56 / 12)
        (cands, _, _, passed), = probes
        assert passed[cands.index(15)]
        cands, start, stop, passed = verifies[0]
        assert cands[:2] == [15, 12] and passed[:2] == [False, True] and stop > _PROBE

    def test_search_spanning_three_probe_blocks(self, monkeypatch):
        # Gaps uniform in [0, 1): the widest is ~1, twice the mean, so the
        # answer lies ~n / 2 candidates below the top.
        v = np.cumsum(np.random.default_rng(5).uniform(0, 1, 10_000))
        (s, w), probes, _ = self._search(monkeypatch, v)
        assert len(probes) >= 3 and probes[2][0][0] >= s
        assert (s, w) == _oracle_max_splits(v) == _loop_max_splits(v)

    def test_two_far_apart_clusters(self, rng):
        # One gap counts at every candidate, so a block holds them all.
        for n in (2, 1500):
            v = np.concatenate([rng.normal(0, 1, n), rng.normal(1e4, 1, n)])
            assert _max_splits_1d(v) == _oracle_max_splits(v)

    @staticmethod
    def _bound_and_gaps(v):
        """span / s_hi for the top candidate s_hi, which only wider gaps pass, and the gaps."""
        distinct = np.unique(v)
        span, gaps = float(distinct[-1] - distinct[0]), np.diff(distinct)
        s_hi = min(distinct.size, int(np.ceil(2.0 * span / float(gaps.max()))))
        return span / s_hi, gaps

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, 1.0, 2.0, 4.0],  # span 4, widest gap 2: s_hi = 4, and two gaps equal span / s_hi = 1
            [0.0, 3.0, 4.0, 7.0, 8.0, 11.0],  # the three widest gaps tie
            [0.0, 2.0, 4.0, 5.0, 7.0, 9.0, 10.0, 12.0],  # ties among the widest and gaps of 1
            [-8.0, -6.0, -4.0, -2.0, 0.0, 1.0],  # ties among the widest, below zero
        ],
    )
    def test_gap_equal_to_the_bound_and_ties_among_the_widest(self, values):
        v = np.array(values)
        bound, gaps = self._bound_and_gaps(v)
        assert bound in gaps or np.sum(gaps == gaps.max()) > 1
        assert _max_splits_1d(v) == _oracle_max_splits(v) == _loop_max_splits(v)

    def test_integer_values_with_gaps_on_the_bound(self, rng):
        # Integer values make many gaps tie, and some equal span / s_hi exactly.
        on_bound = 0
        for _ in range(400):
            m = int(rng.integers(3, 80))
            v = rng.choice(m, int(rng.integers(2, min(m, 30) + 1)), replace=False).astype(float)
            v = v * rng.choice([1.0, 0.5, 0.25, 3.0]) - rng.integers(0, 50)
            bound, gaps = self._bound_and_gaps(v)
            on_bound += bool(np.any(gaps == bound))
            assert _max_splits_1d(v) == _oracle_max_splits(v) == _loop_max_splits(v), v.tolist()
        assert on_bound >= 20

    @pytest.mark.parametrize("name", ["clustered", "uniform", "csv_pipeline"])
    def test_fit_on_benchmark_data_matches_the_loop(self, name, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.workloads import make_workload

        points = make_workload(name, 11, tmp_path).setup(gridneighbors)[1]
        params = fit_cell_measurements(points)
        loop = [_loop_max_splits(points.coords[:, j]) for j in range(points.coords.shape[1])]
        assert params.splits.tolist() == [s for s, _ in loop]
        assert params.widths.tobytes() == np.array([w for _, w in loop]).tobytes()


class TestSplitSearchWork:
    """A deterministic guard on the split search's work: a spy on _bin_of counts elements, nothing is timed."""

    @pytest.mark.parametrize(
        "values, bound",
        [
            # 100,296 elements today; the (counts x gaps) block search took 489,942.
            (np.random.default_rng(12345).uniform(0, 100, 50_000), 200_000),
            # 132,766 today: one probe block, then 4 chunks of the top candidate's gaps.
            (np.arange(-25_000, 25_000, dtype=float), 270_000),
        ],
        ids=["uniform", "lattice"],
    )
    def test_broadcasts_stay_in_budget_and_total_work_bounded(self, values, bound, monkeypatch):
        sizes = []
        bin_of = grid._bin_of

        def counted(*args):
            out = bin_of(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(grid, "_bin_of", counted)
        assert _max_splits_1d(values) == _oracle_max_splits(values)
        assert max(sizes) <= _SPLIT_BLOCK
        assert sum(sizes) < bound


class TestHashCell:
    def test_floor_of_coordinates(self):
        params = GridParams([1.0, 1.0], [1, 1])
        assert hash_cell((2.5, 3.7), params) == (2, 3)

    def test_origin(self):
        params = GridParams([0.3, 2.0, 5.0], [1] * 3)
        assert hash_cell((0, 0, 0), params) == (0, 0, 0)

    def test_negative_floors_toward_minus_infinity(self):
        params = GridParams([1.0], [1])
        assert hash_cell((-0.5,), params) == (-1,)

    def test_dimension_mismatch(self):
        params = GridParams([1.0], [1])
        with pytest.raises(ValueError):
            hash_cell((1.0, 2.0), params)

    def test_cell_id_past_bound_rejected(self):
        # The same checked rule as build and knn_query, not a 300-digit int.
        params = GridParams([1.0], [1])
        with pytest.raises(ValueError, match=r"2\*\*62"):
            hash_cell((1e300,), params)

    @pytest.mark.parametrize("p", [(math.nan,), (math.inf,), (-math.inf,), (0.5, math.nan), (math.inf, 1e300)])
    def test_non_finite_point_rejected(self, p):
        # The query's rule, not "too far from the origin".
        params = GridParams([1.0] * len(p), [1] * len(p))
        with pytest.raises(ValueError, match="non-finite coordinate"):
            hash_cell(p, params)


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
        index = build(points_from_arrays(X, [0] * 4), params=GridParams([1.0], [1]))
        assert cell_points(index, (0,)) == [0, 1, 2]
        assert cell_points(index, np.array([1])) == [3]

    def test_cell_points_absent(self):
        index = build(_pts([[1.0, 1.0]]), params=GridParams([1.0, 1.0], [1, 1]))
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

        def edit(header):
            assert header["arrays"]["labels"]["dtype"] == "<i8"
            header["arrays"]["labels"]["dtype"] = "<M8[s]"  # same item size: only the kind is wrong

        path = tmp_path / "dated.ghn"
        path.write_bytes(rewrite_index((tmp_path / "idx.ghn").read_bytes(), edit))
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


class TestCellBoxes:
    def test_exact_per_cell_min_and_max(self, rng):
        X = np.concatenate([rng.normal(0, 2, (300, 3)), [[40.0, -40.0, 0.5]]])
        index = build(points_from_arrays(X, [0] * 301), params=GridParams([1.5] * 3, [1] * 3))
        lo, hi = index.cell_boxes
        assert lo.shape == hi.shape == index.cell_array.shape
        for i, cell in enumerate(index.cell_array):
            pts = X[cell_points(index, cell)]
            assert lo[i].tolist() == pts.min(axis=0).tolist()
            assert hi[i].tolist() == pts.max(axis=0).tolist()
        assert index.cell_boxes[0] is lo  # built once
        for box in (lo, hi):
            assert not box.flags.writeable
            with pytest.raises(ValueError):
                box[0, 0] = 1.0

    def test_not_saved_and_rebuilt_the_same_after_load(self, rng, tmp_path):
        X = rng.normal(0, 2, (400, 2))
        index = build(points_from_arrays(X, rng.integers(0, 3, 400)))
        save_index(index, tmp_path / "a.ghn")
        boxes = index.cell_boxes
        save_index(index, tmp_path / "b.ghn")
        loaded = load_index(tmp_path / "b.ghn")
        assert "cell_boxes" not in vars(loaded)
        for q in X[:10] + 0.01:
            knn_query(loaded, q, 5)
        save_index(loaded, tmp_path / "c.ghn")
        assert (tmp_path / "a.ghn").read_bytes() == (tmp_path / "b.ghn").read_bytes() == (tmp_path / "c.ghn").read_bytes()
        assert all(np.array_equal(a, b) for a, b in zip(loaded.cell_boxes, boxes))

    def test_not_built_when_every_cell_holds_one_point(self):
        X = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)), -1).reshape(-1, 2)
        index = build(points_from_arrays(X, [0] * 64), params=GridParams([1.0, 1.0], [8, 8]))
        for q in X[::5] + 0.3:
            for mode in ("heuristic", "guaranteed"):
                knn_query(index, q, 4, mode)
        assert "cell_boxes" not in vars(index)


class TestCellCols:
    def test_cell_ids_less_the_box_corner_one_row_per_dimension(self, rng):
        for d in (1, 2, 4):
            X = rng.normal(0, 3, (300, d)) - 40
            index = build(points_from_arrays(X, [0] * 300))
            cols = index.cell_cols
            assert cols.shape == (d, len(index.cell_array)) and cols.flags.c_contiguous
            for j in range(d):
                assert cols[j].tolist() == (index.cell_array[:, j] - index.cell_lo[j]).tolist()

    @pytest.mark.parametrize(
        "side, dtype", [(2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)]
    )
    def test_narrowest_dtype_that_holds_the_box(self, side, dtype):
        # Width-1 cells 0 .. side - 1 in the first dimension and one cell in
        # the second. The queries lie inside the box at its far edge, and
        # outside it past each end, in both dimensions, and 40,000 cells out
        # in the second, which for the int16 box is more than its side.
        X = np.array([[0.5, 0.5], [side - 0.5, 0.5], [side // 2 + 0.5, 0.5]])
        index = build(points_from_arrays(X, [0, 1, 2]), params=GridParams([1.0, 1.0], [side, 1]))
        assert index.cell_hi[0] - index.cell_lo[0] + 1 == side and index.cell_table is None
        assert index.cell_cols.dtype == dtype
        assert index.cell_cols.tolist() == (index.cell_array - index.cell_lo).T.tolist()
        queries = [[side - 0.7, 0.5], [side + 5.5, 0.5], [-6.5, 3.5], [side // 2 + 0.2, 40_000.5]]
        ref = BucketIndex(index)
        bi = brute_build(points_from_arrays(X, [0, 1, 2]))
        for q in queries:
            for mode in ("heuristic", "guaranteed"):
                got, stats = knn_query(index, q, 1, mode)
                want, want_stats = reference_knn_query(ref, q, 1, mode)
                assert ([(n.distance, n.point_index) for n in got], stats) == ([(n.distance, n.point_index) for n in want], want_stats)
            for k in (1, 2, 3):
                got = knn_query(index, q, k, "guaranteed")[0]
                assert [(n.distance, n.point_index) for n in got] == [(b.distance, b.point_index) for b in brute_knn(bi, q, k)]

    def test_read_only_built_by_a_slab_round_and_never_saved(self, rng, tmp_path):
        X = rng.uniform(0, 100, (400, 2))  # far more cells than 8n: no table, every layer from slab rounds
        index = build(points_from_arrays(X, rng.integers(0, 3, 400)))
        assert index.cell_table is None
        save_index(index, tmp_path / "a.ghn")
        assert "cell_cols" not in vars(index)
        knn_query(index, X[0], 3)
        cols = vars(index)["cell_cols"]
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0] = 1
        save_index(index, tmp_path / "b.ghn")
        loaded = load_index(tmp_path / "b.ghn")
        assert "cell_cols" not in vars(loaded)
        knn_query(loaded, X[1] + 0.01, 5, "guaranteed")
        assert np.array_equal(vars(loaded)["cell_cols"], cols) and loaded.cell_cols.dtype == cols.dtype
        save_index(loaded, tmp_path / "c.ghn")
        assert (tmp_path / "a.ghn").read_bytes() == (tmp_path / "b.ghn").read_bytes() == (tmp_path / "c.ghn").read_bytes()


class TestCellTable:
    @staticmethod
    def _dense(rng, d=2):
        X = rng.uniform(0, 6, (300, d))
        return build(points_from_arrays(X, rng.integers(0, 3, 300)), params=GridParams([1.0] * d, [6] * d))

    @staticmethod
    def _key(table, cell):
        _table, base, strides, _stencils = table
        return sum((int(c) - a) * s for c, a, s in zip(cell, base, strides))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_maps_each_cell_key_to_its_row(self, rng, d):
        index = self._dense(rng, d)
        table, base, strides, stencils = index.cell_table
        assert base == [a - grid._TABLE_PAD for a in index.cell_lo]
        assert table.size == math.prod(b - a + 1 + 2 * grid._TABLE_PAD for a, b in zip(index.cell_lo, index.cell_hi))
        assert [table[self._key(index.cell_table, c)] for c in index.cell_array] == list(range(len(index.cell_array)))
        assert np.count_nonzero(table >= 0) == len(index.cell_array)
        # Each stencil holds the key offsets of one Chebyshev layer, ascending.
        center = self._key(index.cell_table, [2] * d)
        for l, offs in enumerate(stencils, 1):
            assert offs.size == layer_cell_count(l, d)
            ring = [c for c in itertools.product(range(5), repeat=d) if max(abs(x - 2) for x in c) == l]
            assert offs.tolist() == sorted(self._key(index.cell_table, c) - center for c in ring)
        for a in (table, *stencils):
            assert not a.flags.writeable

    def test_none_when_the_padded_box_holds_more_than_8n_cells(self):
        # Two points, in cells 0 and s - 1: the padded box holds s + 4 cells.
        def index(s):
            X = np.array([[0.5], [s - 0.5]])
            return build(points_from_arrays(X, [0, 1]), params=GridParams([1.0], [s]))

        assert index(12).cell_table is not None  # 16 cells
        assert index(13).cell_table is None  # 17 cells

    def test_built_by_the_first_query_and_never_saved(self, rng, tmp_path):
        index = self._dense(rng)
        save_index(index, tmp_path / "a.ghn")
        assert "cell_table" not in vars(index)
        knn_query(index, index.coords[0], 3)
        table = vars(index)["cell_table"]
        save_index(index, tmp_path / "b.ghn")
        loaded = load_index(tmp_path / "b.ghn")
        assert "cell_table" not in vars(loaded)
        for q in index.coords[:10] + 0.01:
            knn_query(loaded, q, 5)
        assert loaded.cell_table is vars(loaded)["cell_table"]
        save_index(loaded, tmp_path / "c.ghn")
        assert (tmp_path / "a.ghn").read_bytes() == (tmp_path / "b.ghn").read_bytes() == (tmp_path / "c.ghn").read_bytes()
        (t, base, strides, stencils), (lt, lbase, lstrides, lstencils) = table, loaded.cell_table
        assert np.array_equal(t, lt) and base == lbase and strides == lstrides
        assert all(np.array_equal(a, b) for a, b in zip(stencils, lstencils))

    def test_golden_file_builds_its_table(self):
        index = load_index(GOLDEN)
        table = index.cell_table
        assert table is not None
        assert [table[0][self._key(table, c)] for c in index.cell_array] == list(range(len(index.cell_array)))


def _golden_data():
    rng = np.random.default_rng(2020)
    X = np.round(rng.normal(0, 2, (40, 2)), 3)
    return X, rng.integers(0, 3, 40)


class TestIndexFileChecks:
    def test_golden_file_loads_and_rebuilds_byte_identically(self, tmp_path):
        # tests/data/index_v2.ghn is what save_index writes for this build, and
        # version 2 must not change. index_v1.ghn, written in version 1 by the
        # bucket-list layout that preceded CSR, must load to the same index and
        # re-save as the version 2 file.
        X, y = _golden_data()
        built = build(points_from_arrays(X, y))
        save_index(built, tmp_path / "built.ghn")
        assert (tmp_path / "built.ghn").read_bytes() == GOLDEN.read_bytes()
        for golden in (GOLDEN, GOLDEN_V1):
            loaded = load_index(golden)
            for _name, source, _kinds, _shape in _LAYOUT:
                assert source(loaded).dtype == source(built).dtype and np.array_equal(source(loaded), source(built))
            save_index(loaded, tmp_path / "resaved.ghn")
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
        path = tmp_path / "cut.ghn"
        for golden in (GOLDEN, GOLDEN_V1):
            data = golden.read_bytes()
            for cut in range(0, len(data), 7):
                path.write_bytes(data[:cut])
                with pytest.raises(ValueError, match="cut.ghn"):
                    load_index(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ghn"
        for golden in (GOLDEN, GOLDEN_V1):
            path.write_bytes(golden.read_bytes() + b"\0")
            with pytest.raises(ValueError, match="long.ghn"):
                load_index(path)

    @pytest.mark.parametrize("region", ["offsets", "order"])
    def test_every_flipped_byte_in_csr_arrays_rejected(self, tmp_path, region):
        # One point per cell: offsets are 0..n, so any change to one entry
        # breaks the strict rise; any change to a permutation breaks it.
        X = np.arange(30.0).reshape(-1, 1)
        index = build(points_from_arrays(X, [0] * 30), params=GridParams([1.0], [30]))
        good = tmp_path / "good.ghn"
        save_index(index, good)
        data = good.read_bytes()
        start, end = regions(data)[region]
        path = tmp_path / "flipped.ghn"
        for pos in range(start, end):
            path.write_bytes(data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1 :])
            with pytest.raises(ValueError, match="flipped.ghn"):
                load_index(path)

    def test_unsorted_cell_ids_rejected(self, tmp_path):
        path = tmp_path / "unsorted.ghn"
        path.write_bytes(rewrite_index(GOLDEN.read_bytes(), cell_ids=load_index(GOLDEN).cell_array[::-1]))
        with pytest.raises(ValueError, match="cell ids"):
            load_index(path)


#: The arrays of either version, in version 1's file order: all but origin are version 2's.
NAMES = tuple(regions(GOLDEN_V1.read_bytes()))


def _golden(name):
    """The golden file to break name in: version 2, or version 1 for origin, which load_index still checks there."""
    return GOLDEN_V1 if name == "origin" else GOLDEN


class TestLoadRejections:
    """Every check of load_index, each on a file that breaks only that check.

    The files are the golden index (40 points, 2-d, every array of 8-byte
    items) with its header or some of its arrays rewritten, in version 2
    but for version 1's origin.
    """

    @staticmethod
    def _rejected(tmp_path, data, match):
        path = tmp_path / "bad.ghn"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=r"bad\.ghn: " + match):
            load_index(path)

    def test_golden_file_is_the_file_described(self):
        loaded = load_index(GOLDEN)
        assert loaded.coords.shape == (40, 2) and loaded.labels.dtype == np.int64
        assert 1 < loaded.cell_array.shape[0] < 40
        assert tuple(regions(GOLDEN.read_bytes())) == tuple(name for name in NAMES if name != "origin")

    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_dtype_kind_rejected(self, tmp_path, name):
        def edit(header):
            saved = header["arrays"][name]["dtype"]
            # Same item size, so only the kind is wrong; labels may be ints or floats.
            header["arrays"][name]["dtype"] = "<m8[s]" if name == "labels" else {"<f8": "<i8", "<i8": "<f8"}[saved]

        self._rejected(tmp_path, rewrite_index(_golden(name).read_bytes(), edit), f"{name} has dtype")

    @staticmethod
    def _shape_grown(name):
        """The golden file with name one longer along its last axis, and the name reported.

        A donor shrinks by as many elements, so the file size still matches
        the header. coords sets n and d, so a wider coords is reported as the
        widths that no longer match it; a longer order takes its element from
        labels, checked first.
        """
        donor = "labels" if name == "order" else "order"

        def edit(header):
            shapes = {key: meta["shape"] for key, meta in header["arrays"].items()}
            shapes[donor][-1] -= math.prod(shapes[name][:-1])
            shapes[name][-1] += 1

        return rewrite_index(_golden(name).read_bytes(), edit), {"coords": "widths", "order": "labels"}.get(name, name)

    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_shape_rejected(self, tmp_path, name):
        data, reported = self._shape_grown(name)
        self._rejected(tmp_path, data, f"{reported} has shape")

    @pytest.mark.parametrize("name", NAMES)
    def test_wrong_shape_rejected_before_any_array_is_read(self, tmp_path, monkeypatch, name):
        data, reported = self._shape_grown(name)

        def no_read(*args, **kwargs):
            raise AssertionError("an array was allocated for reading")

        monkeypatch.setattr(grid.np, "empty", no_read)
        self._rejected(tmp_path, data, f"{reported} has shape")

    @pytest.mark.parametrize("entry", [-1, 2.5, "2"])
    @pytest.mark.parametrize("name", NAMES)
    def test_bad_shape_entry_rejected(self, tmp_path, name, entry):
        def edit(header):
            header["arrays"][name]["shape"][0] = entry

        self._rejected(tmp_path, rewrite_index(_golden(name).read_bytes(), edit), f"corrupt header entry for {name}")

    def test_huge_shape_rejected_by_the_file_size(self, tmp_path):
        def edit(header):
            header["arrays"]["coords"]["shape"] = [2**40, 2**20]

        self._rejected(tmp_path, rewrite_index(GOLDEN.read_bytes(), edit), "file size does not match")

    @pytest.mark.parametrize("version", [0, 3, "1", "2", None, True, 1.0])
    def test_other_version_rejected(self, tmp_path, version):
        def edit(header):
            header["version"] = version

        self._rejected(tmp_path, rewrite_index(GOLDEN.read_bytes(), edit), "bad header: unsupported index version")

    def test_unknown_metric_rejected(self, tmp_path):
        def edit(header):
            header["metric"] = "cosine"

        self._rejected(tmp_path, rewrite_index(GOLDEN.read_bytes(), edit), "unknown metric 'cosine'")

    @pytest.mark.parametrize("width", [0.0, -1.0, np.inf, np.nan])
    def test_bad_width_rejected(self, tmp_path, width):
        widths = load_index(GOLDEN).params.widths.copy()
        widths[1] = width
        data = rewrite_index(GOLDEN.read_bytes(), widths=widths)
        self._rejected(tmp_path, data, "all cell widths must be positive and finite")

    def test_zero_split_count_rejected(self, tmp_path):
        splits = load_index(GOLDEN).params.splits.copy()
        splits[1] = 0
        data = rewrite_index(GOLDEN.read_bytes(), splits=splits)
        self._rejected(tmp_path, data, "every split count must be at least 1")

    @pytest.mark.parametrize("coords", [np.empty((0, 2)), np.zeros(80), np.zeros((40, 2, 1))], ids=["empty", "1-d", "3-d"])
    def test_coords_not_a_non_empty_matrix_rejected(self, tmp_path, coords):
        data = rewrite_index(GOLDEN.read_bytes(), coords=coords)
        self._rejected(tmp_path, data, "coords and cell_ids must be non-empty matrices")

    def test_empty_cell_ids_rejected(self, tmp_path):
        data = rewrite_index(GOLDEN.read_bytes(), cell_ids=np.empty((0, 2), np.int64), offsets=np.zeros(1, np.int64))
        self._rejected(tmp_path, data, "offsets do not rise strictly from 0 to 40")

    @pytest.mark.parametrize("cut", range(len(_MAGIC), len(_MAGIC) + 4))
    def test_cut_inside_the_header_length_rejected(self, tmp_path, cut):
        self._rejected(tmp_path, GOLDEN.read_bytes()[:cut], "truncated header")

    @pytest.mark.parametrize("row", [0, 17, 39])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, tmp_path, row, value):
        coords = load_index(GOLDEN).coords.copy()
        coords[row, 1] = value
        data = rewrite_index(GOLDEN.read_bytes(), coords=coords)
        self._rejected(tmp_path, data, f"point {row}: non-finite coordinate")

    @pytest.mark.parametrize("row", [0, 17, 39])
    def test_nan_label_rejected(self, tmp_path, row):
        labels = load_index(GOLDEN).labels.astype(float)
        labels[row] = np.nan
        data = rewrite_index(GOLDEN.read_bytes(), labels=labels)
        self._rejected(tmp_path, data, f"point {row}: NaN label")

    @staticmethod
    def _line_index(first, last):
        """A 4-point 1-d index file with cells 0..3, its first and last ids replaced."""
        X = np.arange(4.0).reshape(-1, 1) + 0.2
        index = build(points_from_arrays(X, [0] * 4), params=GridParams([1.0], [4]))
        cells = index.cell_array.copy()
        cells[0, 0], cells[-1, 0] = first, last
        return index, cells

    @pytest.mark.parametrize(
        "first, last", [(-(2**63), 3), (0, 2**63 - 1), (-(2**62), 3), (0, 2**62)], ids=["min", "max", "-bound", "+bound"]
    )
    def test_cell_id_outside_the_build_bound_rejected(self, tmp_path, first, last):
        # np.abs(-2**63) is negative: the bound holds for the minimum and the maximum.
        index, cells = self._line_index(first, last)
        save_index(index, tmp_path / "good.ghn")
        data = rewrite_index((tmp_path / "good.ghn").read_bytes(), cell_ids=cells)
        self._rejected(tmp_path, data, r"a cell id leaves \+-2\*\*62")

    def test_cell_ids_just_inside_the_bound_load(self, tmp_path):
        index, cells = self._line_index(-(2**62) + 1, 2**62 - 1)
        save_index(index, tmp_path / "good.ghn")
        path = tmp_path / "edge.ghn"
        path.write_bytes(rewrite_index((tmp_path / "good.ghn").read_bytes(), cell_ids=cells))
        assert load_index(path).cell_array.tolist() == cells.tolist()


class TestParamChecks:
    @pytest.mark.parametrize("width", [0.0, -2.0, np.inf, -np.inf, np.nan, "1.5"])
    def test_width_not_positive_and_finite_rejected(self, width):
        with pytest.raises(ValueError, match="positive and finite"):
            GridParams([1.0, width], [1, 1])

    @pytest.mark.parametrize(
        "widths, splits",
        [(np.ones((3, 3)), np.ones(3)), ([1.0, 2.0], [1]), ([1.0, 2.0], [1, 2, 3]), ([], []), (1.0, 1)],
        ids=["2-d widths", "fewer splits", "more splits", "no dimension", "scalars"],
    )
    def test_geometry_other_than_d_widths_and_d_splits_rejected(self, widths, splits):
        with pytest.raises(ValueError, match=r"are not both \(d,\), d >= 1"):
            GridParams(widths, splits)

    @pytest.mark.parametrize("split", [0, -1, 1.5, 2.0, "3", 2**70, 1e300])
    def test_split_count_below_1_rejected(self, split):
        with pytest.raises(ValueError, match="every split count must be at least 1"):
            GridParams([1.0, 1.0], [1, split])

    @pytest.mark.parametrize("widths, splits", [([True, True], [1, 1]), ([1.0, 1.0], [True, True])])
    def test_bool_widths_or_splits_rejected(self, widths, splits):
        # Only an all-bool list stays bool: [1.0, True] is the float vector [1.0, 1.0].
        with pytest.raises(ValueError, match="positive and finite numbers|of integer dtype"):
            GridParams(widths, splits)

    def test_build_with_params_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="params dimension does not match the data"):
            build(_pts([[1.0, 2.0], [3.0, 4.0]]), params=GridParams([1.0], [1]))


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


#: Column offsets for drawn cell ids: small ids, and ids just inside +-2**62.
_ID_BASES = (0, -(2**62) + 3, 2**62 - 3)


def _box_rows(lo, side):
    """Cells at both ends of a box side cells wide in the first dimension, and inside it, repeated and out of order."""
    hi = lo + side - 1
    return [(hi, 0), (lo, 1), (lo + side // 2, 0), (lo, 0), (hi, 0), (lo, 1), (hi, -1), (lo + 1, 2)]


#: A cell id near 2**62 that a float holds exactly: floats there are 1024 apart.
_NEAR = 2**62 - 1024


@st.composite
def cell_rows(draw, bases=_ID_BASES):
    """(C, d) int64 cell ids, d in 1..4 and C in 1..8, as a list of tuples, and d.

    Drawn as they come, sorted (so a row may repeat) or sorted without
    repeats; then, maybe, one row made to tie its predecessor in the
    leading columns and fall only in a later one.
    """
    d = draw(st.integers(1, 4))
    bases = draw(st.tuples(*[st.sampled_from(bases)] * d))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=8))
    shape = draw(st.sampled_from(["drawn", "sorted", "unique"]))
    rows = {"drawn": rows, "sorted": sorted(rows), "unique": sorted(set(rows))}[shape]
    if d > 1 and len(rows) > 1 and draw(st.booleans()):
        i, j = draw(st.integers(1, len(rows) - 1)), draw(st.integers(1, d - 1))
        rows[i] = rows[i - 1][:j] + (rows[i - 1][j] - 1,) + rows[i][j + 1 :]
    return [tuple(b + v for b, v in zip(bases, row)) for row in rows], d


class TestColumnPasses:
    """The checks and reductions done one column at a time against per-row references."""

    @settings(max_examples=300, deadline=None)
    @given(case=cell_rows())
    @example(case=([(5,)], 1))  # one cell
    @example(case=([(0, 1, 2), (0, 1, 2)], 3))  # a repeated row
    @example(case=([(0, 1, 2, 3), (0, 1, 3, 0), (0, 1, 2, 9)], 4))  # a fall in the third column only
    def test_load_rejects_exactly_the_cell_ids_that_do_not_rise_strictly(self, tmp_path_factory, case):
        rows, d = case
        cells = np.array(rows, dtype=np.int64).reshape(-1, d)
        c = len(rows)
        # One point per cell, so every other check of load_index passes.
        data = rewrite_index(
            GOLDEN.read_bytes(),
            widths=np.ones(d),
            splits=np.ones(d, np.int64),
            coords=np.zeros((c, d)),
            labels=np.zeros(c, np.int64),
            cell_ids=cells,
            offsets=np.arange(c + 1),
            order=np.arange(c),
        )
        path = tmp_path_factory.mktemp("ids") / "case.ghn"
        path.write_bytes(data)
        if not all(a < b for a, b in zip(rows, rows[1:])):
            with pytest.raises(ValueError, match="case.ghn: cell ids are not strictly increasing"):
                load_index(path)
            return
        index = load_index(path)
        assert index.cell_array.tolist() == [list(row) for row in rows]
        assert index.cell_lo == cells.min(axis=0).tolist() and index.cell_hi == cells.max(axis=0).tolist()
        assert all(type(v) is int for v in index.cell_lo + index.cell_hi)

    @settings(max_examples=300, deadline=None)
    @given(case=cell_rows(bases=(0,)))
    def test_build_starts_a_cell_at_each_new_row(self, case):
        rows, d = case
        X = np.array(rows, dtype=float).reshape(-1, d) + 0.5
        index = build(points_from_arrays(X, [0] * len(rows)), params=GridParams(np.ones(d), np.ones(d, dtype=int)))
        order = sorted(range(len(rows)), key=lambda i: rows[i])  # stable: input order inside a cell
        cells = sorted(set(rows))
        assert index.order.tolist() == order
        assert index.cell_array.tolist() == [list(cell) for cell in cells]
        assert index.offsets.tolist() == [0, *itertools.accumulate(rows.count(cell) for cell in cells)]
        assert index.cell_lo == np.min(rows, axis=0).tolist() and index.cell_hi == np.max(rows, axis=0).tolist()
        assert all(type(v) is int for v in index.cell_lo + index.cell_hi)

    @staticmethod
    def _build_spying_on_lexsort(monkeypatch, rows, X):
        """build over width-1 cells, and the keys of each np.lexsort call it makes."""
        calls = []
        lexsort = np.lexsort

        def spy(keys, *args, **kwargs):
            calls.append([np.array(key) for key in keys])
            return lexsort(keys, *args, **kwargs)

        d = len(rows[0])
        with monkeypatch.context() as m:
            m.setattr(np, "lexsort", spy)
            index = build(points_from_arrays(X, [0] * len(rows)), params=GridParams(np.ones(d), np.ones(d, dtype=int)))
        return index, calls

    def test_build_sorts_the_ids_less_the_box_corner_as_int16_keys(self, monkeypatch):
        rows = [(3, -1), (1, 4), (3, -2), (1, 4), (2, 0)]
        index, calls = self._build_spying_on_lexsort(monkeypatch, rows, np.array(rows) + 0.5)
        # One key per dimension, the last one first, and no np.arange key: lexsort is stable.
        assert len(calls) == 1 and [key.dtype for key in calls[0]] == [np.int16, np.int16]
        assert [key.tolist() for key in calls[0]] == [[1, 6, 0, 6, 2], [2, 0, 2, 0, 1]]
        assert index.order.tolist() == [1, 3, 4, 2, 0] and index.cell_cols.dtype == np.int16

    @pytest.mark.parametrize(
        "rows, dtype",
        [
            (_box_rows(0, 2**15 - 1), np.int16),
            (_box_rows(-(2**15), 2**15 - 1), np.int16),
            (_box_rows(0, 2**15), np.int32),
            (_box_rows(-7, 2**15), np.int32),
            (_box_rows(0, 2**31 - 1), np.int32),
            (_box_rows(-(2**31), 2**31 - 1), np.int32),
            (_box_rows(0, 2**31), np.int64),
            (_box_rows(-(2**40), 2**31), np.int64),
            # Ids near +-2**62, in an int16 box and in one that spans both ends.
            ([(_NEAR - 1024 * m, -_NEAR + 1024 * m) for m in (1, 30, 0, 30, 7)], np.int16),
            ([(_NEAR, 5), (-_NEAR, 5), (0, -_NEAR), (-_NEAR, _NEAR), (_NEAR, 5)], np.int64),
        ],
    )
    def test_build_matches_a_sorted_reference_on_wide_boxes(self, monkeypatch, rows, dtype):
        X = np.array(rows, dtype=float)
        if np.abs(X).max() < 2**52:
            X += 0.5  # inside the cell, not on its edge
        assert np.floor(X).astype(np.int64).tolist() == [list(row) for row in rows]
        index, calls = self._build_spying_on_lexsort(monkeypatch, rows, X)
        order = sorted(range(len(rows)), key=lambda i: rows[i])  # stable: input order inside a cell
        cells = sorted(set(rows))
        assert index.order.tolist() == order
        assert index.cell_array.tolist() == [list(cell) for cell in cells]
        assert index.offsets.tolist() == [0, *itertools.accumulate(rows.count(cell) for cell in cells)]
        assert [key.dtype for key in calls[0]] == [dtype, dtype] and index.cell_cols.dtype == dtype
        assert index.cell_cols.tolist() == (np.array(cells, dtype=object) - index.cell_lo).T.tolist()
