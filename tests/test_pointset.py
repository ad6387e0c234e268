from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from gridneighbors import (
    DatasetSpec,
    LabeledPoint,
    Scaler,
    apply_scaler,
    brute_build,
    brute_knn,
    build,
    fit_cell_measurements,
    fit_scaler,
    kdtree_build,
    kdtree_knn,
    knn_query,
    load_csv,
    points_from_arrays,
    run_bench,
    split,
)

DATA_CSV = str(Path(__file__).resolve().parent.parent / "data" / "clusters.csv")


def _data(rng, n=120, d=3):
    X = rng.normal(0, 5, (n, d))
    return points_from_arrays(X, rng.integers(0, 3, n).tolist()), X


class TestPointSet:
    def test_is_a_sequence_of_labeled_points(self, rng):
        pts, X = _data(rng, 10, 2)
        assert isinstance(pts, Sequence) and len(pts) == 10
        last = pts[-1]
        assert isinstance(last, LabeledPoint)
        assert (last.index, last.label) == (9, pts.labels[9])
        assert np.array_equal(last.coords, X[9])
        assert [p.index for p in pts] == list(range(10))
        with pytest.raises(IndexError):
            pts[10]

    @pytest.mark.parametrize(
        "labels", [[3, 1, 2, 3], [0.5, 1.5, 2.5, 0.5], ["a", "bc", "a", "d"]], ids=["int", "float", "str"]
    )
    def test_labels_come_back_as_equal_python_values(self, labels):
        X = np.arange(4.0).reshape(-1, 1)
        pts = points_from_arrays(X, labels)
        assert isinstance(pts.labels, np.ndarray) and pts.labels.shape == (4,)
        row_labels = [p.label for p in pts]
        assert row_labels == labels and [type(v) for v in row_labels] == [type(v) for v in labels]
        for search in (lambda q: knn_query(build(pts), q, 1)[0], lambda q: brute_knn(brute_build(pts), q, 1)):
            got = [search(x)[0].label for x in X]
            assert got == labels and [type(v) for v in got] == [type(v) for v in labels]

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["a", 2], "mix strings and non-strings"),
            ([1, "a"], "mix strings and non-strings"),
            ([None, 1], "numbers or strings"),
            ([object(), object()], "numbers or strings"),
            (np.array(["2020-01-01", "2020-01-02"], dtype="M8[D]"), "numbers or strings"),
            ("ab", "1-D"),
            ([[0], [1]], "1-D"),
        ],
        ids=["str-then-int", "int-then-str", "none", "objects", "datetimes", "bare-string", "2-d"],
    )
    def test_bad_labels_rejected(self, labels, message):
        with pytest.raises(ValueError, match=message):
            points_from_arrays(np.zeros((2, 1)), labels)

    def test_labels_are_a_read_only_copy(self):
        y = np.array([0, 1, 2])
        pts = points_from_arrays(np.zeros((3, 1)), y)
        y[0] = 9
        assert pts.labels.tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="read-only"):
            pts.labels[0] = 5

    def test_nan_names_the_first_bad_row(self, rng):
        X = rng.normal(size=(20, 3))
        X[7, 1] = np.nan
        X[12, 0] = np.inf
        with pytest.raises(ValueError, match=r"^point 7: non-finite coordinate$"):
            points_from_arrays(X, [0] * 20)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="matrix"):
            points_from_arrays(np.zeros(3), [0, 0, 0])
        with pytest.raises(ValueError, match="labels length"):
            points_from_arrays(np.zeros((3, 2)), [0, 0])
        with pytest.raises(ValueError, match="empty dataset"):
            points_from_arrays(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="no feature columns"):
            points_from_arrays(np.empty((5, 0)), [0] * 5)

    def test_index_does_not_alias_the_callers_array(self, rng):
        X = rng.normal(0, 5, (200, 2))
        y = rng.integers(0, 3, 200)
        index = build(points_from_arrays(X, y))
        coords = index.coords.copy()
        q = X[0] + 0.1
        before = knn_query(index, q, 5)
        X[:] = 0.0
        assert np.array_equal(index.coords, coords)
        assert knn_query(index, q, 5) == before

    def test_index_cannot_be_changed_through_the_set(self, rng):
        pts, X = _data(rng, 50, 2)
        index = build(pts)
        for row in (pts.coords, pts[3].coords, index.coords):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1e6
        assert np.array_equal(index.coords, X)


_STAGES = {
    "split": lambda pts: split(pts, 0.7, seed=3)[1],
    "apply_scaler": lambda pts: apply_scaler(Scaler("none", np.zeros(3), np.ones(3)), pts),
    "build": build,
    "brute_build": brute_build,
    "kdtree_build": kdtree_build,
}


@pytest.mark.parametrize("name", _STAGES)
def test_every_stage_holds_one_read_only_label_array(rng, name):
    pts, _ = _data(rng)
    labels = _STAGES[name](pts).labels
    assert isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype == pts.labels.dtype
    assert not labels.flags.writeable


_SET_UP = {
    "fit_cell_measurements": fit_cell_measurements,
    "build": build,
    "brute_build": brute_build,
    "kdtree_build": kdtree_build,
    "split": lambda pts: split(pts, 0.7, seed=3),
    "fit_scaler": lambda pts: fit_scaler(pts, "standard"),
    "apply_scaler": lambda pts: apply_scaler(Scaler("none", np.zeros(3), np.ones(3)), pts),
    "run_bench": lambda pts: run_bench(pts, task="classification"),
}


@pytest.mark.parametrize("name", _SET_UP)
def test_set_up_rejects_a_list_of_points(rng, name):
    # PointSet is the only point container: a list of its rows is not stacked.
    pts, _ = _data(rng)
    with pytest.raises(AttributeError):
        _SET_UP[name](list(pts))


def test_set_up_chain_builds_no_labeled_point(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a LabeledPoint was built")

    monkeypatch.setattr(LabeledPoint, "__init__", refuse)
    with pytest.raises(AssertionError):
        LabeledPoint(np.zeros(2), 0, 0)  # the patch is in force

    data = load_csv(DatasetSpec(DATA_CSV, "label", "classification"))
    train, test = split(data, 0.8, seed=0)
    scaler = fit_scaler(train, "standard")
    train_s, test_s = apply_scaler(scaler, train), apply_scaler(scaler, test)
    params = fit_cell_measurements(train_s)
    index = build(train_s, params=params)
    brute = brute_build(train_s)
    tree = kdtree_build(train_s)
    q = test_s.coords[0]
    expected = brute_knn(brute, q, 3)
    assert knn_query(index, q, 3, "guaranteed")[0] == expected
    assert kdtree_knn(tree, q, 3) == expected
