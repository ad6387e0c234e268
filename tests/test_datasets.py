import csv
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridneighbors import DatasetSpec, apply_scaler, fit_scaler, load_csv, points_from_arrays, split
from gridneighbors import datasets
from gridneighbors.datasets import DatasetError
from helpers import SIGNED_ZEROS, ZERO_MATRICES
from reference_csv import reference_load_csv


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

    @pytest.mark.parametrize("column", [4, np.int64(4), np.int32(-1), -1])
    def test_label_column_by_number_numpy_integers_too(self, column):
        path = str(Path(__file__).resolve().parents[1] / "data" / "clusters.csv")
        spec = DatasetSpec(path, column, "classification")
        assert type(spec.label_column) is int
        got, want = load_csv(spec), load_csv(DatasetSpec(path, "label", "classification"))
        assert np.array_equal(got.coords, want.coords) and np.array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("column", [True, False, np.True_, 2.0, None])
    def test_label_column_neither_a_name_nor_an_integer_rejected(self, column):
        # True would otherwise select column 1, a feature column.
        with pytest.raises(TypeError, match="label_column must be an integer"):
            DatasetSpec("data/clusters.csv", column, "classification")

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


FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
INTS = st.integers(-(10**6), 10**6).map(str)
# Spellings float() and np.loadtxt may read differently, or that one rejects.
ODD_NUMBERS = st.sampled_from(
    ["1_0", " 1.5", "2.5 ", "+.5", "-0", "1e999", "nan", "-inf", "", "x", "١", "\xa01", "0x10", "1,5", '"2"']
)
PLAIN_LABELS = st.sampled_from(["a", "b", "c0", "7", "7.0"])
ODD_LABELS = st.one_of(
    st.sampled_from([" a", "a ", "#a", "", "x,z", 'say "hi"', "l" * 40, "a\x00", "é", "﻿a"]),
    st.text(st.characters(codec="utf-8"), max_size=20),
)


def _field(value, quote):
    """A CSV field, quoted as csv.writer quotes it when quote is set."""
    if quote and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def csv_cases(draw):
    """(text, label_column, task, has_header): a CSV file and how to read it."""
    ncols = draw(st.integers(1, 4))
    task = draw(st.sampled_from(["classification", "regression"]))
    has_header = draw(st.booleans())
    label_pos = draw(st.integers(0, ncols - 1))
    odd = draw(st.booleans())
    numbers = st.one_of(FLOATS, INTS, ODD_NUMBERS) if odd else st.one_of(FLOATS, INTS)
    if task == "regression":
        labels = numbers
    else:
        labels = st.one_of(PLAIN_LABELS, ODD_LABELS) if odd else PLAIN_LABELS
    rows = [
        [draw(labels) if j == label_pos else draw(numbers) for j in range(ncols)]
        for _ in range(draw(st.integers(1, 5)))
    ]
    if has_header:
        rows.insert(0, ["label" if j == label_pos else f"f{j}" for j in range(ncols)])
    quote = draw(st.booleans())
    lines = [",".join(_field(v, quote) for v in row) for row in rows]
    for edit in draw(st.lists(st.sampled_from(["blank", "comment", "spaces", "extra", "short"]), max_size=2)):
        at = draw(st.integers(0, len(lines) - 1))
        if edit == "extra":
            lines[at] += ",9"
        elif edit == "short":
            lines[at] = lines[at].rpartition(",")[0]
        else:
            lines.insert(at + 1, {"blank": "", "comment": "# note", "spaces": "  "}[edit])
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.booleans()):
        text = "﻿" + text
    names = ["label"] if has_header else []
    label_column = draw(st.sampled_from([*names, label_pos, label_pos - ncols, ncols, "missing"]))
    return text, label_column, task, has_header


def _outcome(load, spec):
    """What a loader made of a file: the PointSet's bytes, or the error it raised."""
    try:
        pts = load(spec)
    except (ValueError, csv.Error) as exc:  # DatasetError, PointSet's checks, decode errors
        return type(exc), str(exc)
    return pts.coords.shape, pts.coords.tobytes(), pts.labels.dtype, pts.labels.tobytes()


class TestLoadCsvMatchesRowLoop:
    """load_csv against the frozen per-row parse: same points, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(case=csv_cases())
    @example(case=("a,b,label\n1,2,x\n3,4,y,5\n", "label", "classification", True))  # extra column
    @example(case=("a,b,label\n1,2,x\n\n3,4,y\n", "label", "classification", True))  # blank line
    @example(case=("a,b,label\n1,2,x\n#3,4,y\n", "label", "classification", True))  # leading #
    @example(case=('a,b,label\n1,2,"x,z"\n3,4,y\n', "label", "classification", True))  # quoted comma
    @example(case=('a,b,label\n1,2,"say ""hi"""\n3,4,y\n', -1, "classification", True))  # doubled quotes
    @example(case=("a,b,label\n1,2, x\n3,4,x\n", "label", "classification", True))  # leading spaces
    @example(case=("a,b,label\n1_0,2,x\n3,4,y\n", "label", "classification", True))  # 1_0
    @example(case=("a,b,label\n1,2,1_0\n3,4,2\n", "label", "regression", True))  # 1_0 target
    @example(case=("1,2," + "l" * 40 + "\n3,4," + "l" * 39 + "\n", -1, "classification", False))  # long label
    @example(case=("a,b,label\r\n1,2,x\r\n3,4,y\r\n", "label", "classification", True))  # CRLF
    @example(case=("﻿a,b,label\n1,2,x\n", "label", "classification", True))  # BOM, one row
    @example(case=("1,2,x\n3,4,y\n", -3, "classification", False))  # label first, by negative index
    @example(case=("a,b,label\n1,2,x\r3,4,y\n", "label", "classification", True))  # lone CR
    @example(case=("a,b,label\n1,2,a\x00\n3,4,a\n", "label", "classification", True))  # NUL in a label
    @example(case=('a,b,label\n1,2,"x"\n3,4,x\n', "label", "classification", True))  # one label, quoted once
    @example(case=("a,b,label\n1,2,x\n\n3,4,y,9,9\n", "label", "classification", True))  # blank line, extra columns
    @example(case=("a,b,label\r\n1,2,x\r\n\r\n3,4,y,9,9\r\n", "label", "classification", True))  # the same, CRLF
    @example(case=("a,b,label\n1,2,x\r\r\n3,4,y\n", "label", "classification", True))  # CR CRLF: a blank row
    @example(case=("a,b,label\n1,2,x\n3,4," + "x" * 131_073 + "\n", "label", "classification", True))  # field limit
    @example(case=("a,b,label\n1,2,x,9\n3,4,y,9\n", "label", "classification", True))  # every row one wider than the header
    def test_same_points_or_same_error(self, tmp_path_factory, case):
        text, label_column, task, has_header = case
        path = tmp_path_factory.mktemp("csv") / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        spec = DatasetSpec(str(path), label_column, task, has_header)
        assert _outcome(load_csv, spec) == _outcome(reference_load_csv, spec)

    @pytest.mark.parametrize(
        "text, label_column, task",
        [
            ("﻿f0,label,f1\r\n1.5,b,-2\r\n0.1,a,3e-5\r\n7,b,8\r\n", "label", "classification"),
            ("0.25,1.5,-2\n-7,0.1,3e-5\n", -3, "regression"),
        ],
        ids=["classification", "regression"],
    )
    def test_a_clean_file_skips_the_row_loop(self, tmp_path, monkeypatch, text, label_column, task):
        spec = DatasetSpec(_write(tmp_path, text), label_column, task, has_header=task == "classification")
        expected = _outcome(reference_load_csv, spec)

        def row_loop(*args):
            raise AssertionError("the row loop ran")

        passes = []
        loadtxt = np.loadtxt

        def counted_loadtxt(*args, **kwargs):
            passes.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(datasets, "_parse_rows", row_loop)
        monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
        assert _outcome(load_csv, spec) == expected
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "text, label_column, task",
        [
            ("a,label,b\n1,x,2\n3,y,4\n5,x,6\n", "label", "classification"),
            ("a,label,b\n1,0.5,2\n3,-1e3,4\n", 1, "regression"),
            ("a,label,b\n1,x,2\n3,y\n", "label", "classification"),
            ("a,label,b\n1,x,2\n3,y,oops\n", "label", "classification"),
            ("a,label,b\n1,0.5,2\n3,many,4\n", "label", "regression"),
        ],
        ids=["classification", "regression", "ragged", "non-numeric-feature", "non-numeric-target"],
    )
    def test_the_row_loop_called_directly(self, tmp_path, text, label_column, task):
        # The fallback on its own, whether or not load_csv would reach it.
        spec = DatasetSpec(_write(tmp_path, text), label_column, task)
        with open(spec.path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]

        def row_loop(spec):
            return points_from_arrays(*datasets._parse_rows(spec, rows, 3, 1))

        assert _outcome(row_loop, spec) == _outcome(reference_load_csv, spec)

    @settings(max_examples=200, deadline=None)
    @given(case=csv_cases(), block=st.integers(1, 8))
    @example(case=("a,b,label\n1,2,x\n\n3,4,y\n", "label", "classification", True), block=15)  # blank line on an edge
    @example(case=("a,b,label\n1,2,x\n3,4," + "x" * 131_073, "label", "classification", True), block=4096)  # no last newline
    @example(case=("a,b,label\n1,2,x\n3,4," + "x" * 131_073 + "\n", "label", "classification", True), block=4096)
    def test_the_newline_scan_carries_across_blocks(self, tmp_path_factory, case, block):
        # A file of many blocks: a line, blank or over the field limit, may span their edges.
        text, label_column, task, has_header = case
        path = tmp_path_factory.mktemp("csv") / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        spec = DatasetSpec(str(path), label_column, task, has_header)
        with mock.patch.object(datasets, "_SCAN_BLOCK", block):
            assert _outcome(load_csv, spec) == _outcome(reference_load_csv, spec)

    def test_a_decode_error_comes_before_a_label_column_error(self, tmp_path):
        # As in a full read, a bad byte past the first read block is reported
        # before an unknown label column.
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b,label\n" + b"1,2,x\n" * 4000 + b"\xff,2,x\n")
        spec = DatasetSpec(str(path), "missing", "classification")
        assert _outcome(load_csv, spec) == _outcome(reference_load_csv, spec)
        assert _outcome(load_csv, spec)[0] is UnicodeDecodeError


def test_load_csv_peaks_under_one_and_three_quarter_file_sizes(tmp_path, rng):
    # The newline scan holds 1 MiB of its mask at a time, not one the size of the file.
    X = rng.normal(20, 5, size=(30_000, 4))
    labels = rng.integers(0, 6, 30_000).tolist()
    path = tmp_path / "big.csv"
    rows = (f"{a!r},{b!r},{c!r},{d!r},c{o}\n" for (a, b, c, d), o in zip(X.tolist(), labels))
    path.write_text("f0,f1,f2,f3,label\n" + "".join(rows))
    spec = DatasetSpec(str(path), "label", "classification")
    load_csv(spec)  # warm
    tracemalloc.start()
    try:
        pts = load_csv(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.coords.tobytes() == X.tobytes()
    assert peak < 1.75 * path.stat().st_size, peak / path.stat().st_size


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

    @pytest.mark.parametrize("labels", [np.arange(40) % 3, np.array(list("abcd") * 10)])
    def test_sides_hold_the_shuffled_rows_read_only(self, rng, labels):
        data = points_from_arrays(rng.normal(0, 1, (40, 3)), labels)
        perm = np.random.default_rng(5).permutation(40)
        for side, rows in zip(split(data, 0.75, seed=5), (perm[:30], perm[30:])):
            for got, source in ((side.coords, data.coords), (side.labels, data.labels)):
                assert got.dtype == source.dtype and got.tobytes() == source[rows].tobytes()
                assert not got.flags.writeable and got.flags.c_contiguous


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

    @settings(max_examples=300, deadline=None)
    @given(X=ZERO_MATRICES)
    @example(X=SIGNED_ZEROS)
    def test_minmax_matches_the_axis_0_reductions_bit_for_bit(self, X):
        # A zero shift's sign decides the sign of each -0.0 it is subtracted from,
        # so the minimum stays X.min(axis=0), not a column pass (see SIGNED_ZEROS).
        X = np.array(X)
        lo = X.min(axis=0)
        rng = X.max(axis=0) - lo
        scaler = fit_scaler(points_from_arrays(X, [0] * len(X)), "minmax")
        assert scaler.shift.tobytes() == np.where(rng > 0, lo, lo - 0.5).tobytes()
        assert scaler.scale.tobytes() == np.where(rng > 0, rng, 1.0).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_scaler(points_from_arrays([[1.0]], [0]), "robust")
