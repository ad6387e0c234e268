from pathlib import Path

import numpy as np
import pytest

from gridneighbors import DatasetSpec, apply_scaler, fit_scaler, load_csv, points_from_arrays, split
from gridneighbors.datasets import DatasetError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_header_and_label_by_name(self, tmp_path):
        path = _write(tmp_path, "a,b,cls\n1,2,x\n3,4,y\n5,6,x\n")
        pts = load_csv(DatasetSpec(path, "cls", "classification"))
        assert pts.coords.shape == (3, 2)
        assert [p.label for p in pts] == [0, 1, 0]  # dense ids, first-seen order

    def test_label_by_index_no_header(self, tmp_path):
        path = _write(tmp_path, "1,2,0.5\n3,4,0.7\n")
        pts = load_csv(DatasetSpec(path, -1, "regression", has_header=False))
        assert [p.label for p in pts] == [0.5, 0.7]

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv(DatasetSpec("/nonexistent/x.csv", 0, "classification"))

    def test_ragged_row_names_line(self, tmp_path):
        path = _write(tmp_path, "a,b,cls\n1,2,x\n3,4\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_csv(DatasetSpec(path, "cls", "classification"))

    def test_non_numeric_feature(self, tmp_path):
        path = _write(tmp_path, "a,b,cls\n1,oops,x\n")
        with pytest.raises(DatasetError, match="non-numeric feature"):
            load_csv(DatasetSpec(path, "cls", "classification"))

    def test_label_column_only_rejected(self, tmp_path):
        path = _write(tmp_path, "cls\nx\ny\n")
        with pytest.raises(ValueError, match="no feature columns"):
            load_csv(DatasetSpec(path, "cls", "classification"))

    def test_unknown_label_column(self, tmp_path):
        path = _write(tmp_path, "a,b,cls\n1,2,x\n")
        with pytest.raises(DatasetError, match="unknown label column"):
            load_csv(DatasetSpec(path, "target", "classification"))

    @pytest.mark.parametrize(
        "text, spec",
        [
            ("label,x,y\nb,1,2\na,3,4.5\nb,-1,0\n", ("label", True)),
            ("b,1,2\na,3,4.5\nb,-1,0\n", (0, False)),
        ],
        ids=["header", "no-header"],
    )
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, text, spec):
        label_column, has_header = spec
        plain = _write(tmp_path, text, "plain.csv")
        bom = _write(tmp_path, "\ufeff" + text, "bom.csv")
        assert Path(bom).read_bytes()[:3] == b"\xef\xbb\xbf"
        a, b = (load_csv(DatasetSpec(path, label_column, "classification", has_header)) for path in (plain, bom))
        assert np.array_equal(a.coords, b.coords) and a.coords.shape == (3, 2)
        assert a.labels.tolist() == b.labels.tolist() == [0, 1, 0]

    def test_wine_quality_shape(self, tmp_path, rng):
        # 11 numeric features plus a quality label column.
        header = ",".join(f"f{i}" for i in range(11)) + ",quality"
        rows = [",".join(f"{v:.3f}" for v in rng.uniform(0, 10, 11)) + f",{rng.integers(3, 9)}" for _ in range(20)]
        path = _write(tmp_path, header + "\n" + "\n".join(rows) + "\n")
        pts = load_csv(DatasetSpec(path, "quality", "classification"))
        assert pts.coords.shape == (20, 11)
        # recount against an independent reader
        import csv
        with open(path, newline="") as fh:
            raw = list(csv.reader(fh))
        assert len(pts) == len(raw) - 1


class TestSplit:
    def _data(self, n=10):
        return points_from_arrays(np.arange(n, dtype=float).reshape(-1, 1), list(range(n)))

    def test_80_20(self):
        train, test = split(self._data(10), 0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_same_seed_same_partition(self):
        a = split(self._data(50), 0.8, seed=7)
        b = split(self._data(50), 0.8, seed=7)
        assert [p.label for p in a[0]] == [p.label for p in b[0]]

    def test_different_seeds_differ(self):
        data = self._data(50)
        base = [p.label for p in split(data, 0.8, seed=0)[0]]
        differing = sum(
            [p.label for p in split(data, 0.8, seed=s)[0]] != base for s in range(1, 101)
        )
        assert differing > 95

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            split(self._data(3), 0.01, seed=0)
        with pytest.raises(ValueError):
            split(self._data(3), 0.99, seed=0)

    def test_sides_are_reindexed_and_disjoint(self):
        train, test = split(self._data(20), 0.75, seed=3)
        assert [p.index for p in train] == list(range(15))
        assert [p.index for p in test] == list(range(5))
        assert set(p.label for p in train).isdisjoint(p.label for p in test)


class TestScalers:
    def test_standard(self):
        train = points_from_arrays([[0.0], [2.0]], [0, 0])
        scaler = fit_scaler(train, "standard")
        got = [p.coords[0] for p in apply_scaler(scaler, train)]
        assert got == [-1.0, 1.0]

    def test_minmax(self):
        train = points_from_arrays([[1.0], [3.0]], [0, 0])
        scaler = fit_scaler(train, "minmax")
        got = [p.coords[0] for p in apply_scaler(scaler, train)]
        assert got == [0.0, 1.0]

    def test_constant_column_minmax_is_half(self):
        train = points_from_arrays([[7.0, 1.0], [7.0, 2.0]], [0, 0])
        scaled = apply_scaler(fit_scaler(train, "minmax"), train)
        assert [p.coords[0] for p in scaled] == [0.5, 0.5]

    def test_constant_column_standard_passthrough(self):
        train = points_from_arrays([[7.0], [7.0]], [0, 0])
        scaled = apply_scaler(fit_scaler(train, "standard"), train)
        assert [p.coords[0] for p in scaled] == [7.0, 7.0]

    def test_none_is_identity(self, rng):
        X = rng.normal(0, 3, (10, 2))
        train = points_from_arrays(X, [0] * 10)
        scaled = apply_scaler(fit_scaler(train, "none"), train)
        assert np.array_equal(np.stack([p.coords for p in scaled]), X)

    @pytest.mark.parametrize("kind", ["standard", "minmax"])
    def test_inverse_roundtrip(self, rng, kind):
        X = rng.uniform(-10, 10, (40, 3))
        train = points_from_arrays(X, [0] * 40)
        scaler = fit_scaler(train, kind)
        back = scaler.inverse_transform(scaler.transform(X))
        assert np.allclose(back, X, rtol=1e-9, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_scaler(points_from_arrays([[1.0]], [0]), "robust")
