"""Dataset plumbing for the benchmark harness: CSV loading, train/test
splitting, and feature scaling.

Each step takes and returns a PointSet and works on its whole coords
matrix; load_csv parses the data rows in one np.loadtxt pass, checked
for width, or row by row where that pass might differ from csv.reader.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import PointSet

SCALER_KINDS = ("standard", "minmax", "none")


class DatasetError(ValueError):
    """Malformed dataset file or spec."""


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    label_column: str | int
    task: str  # "classification" | "regression"
    has_header: bool = True

    def __post_init__(self) -> None:
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")


def load_csv(spec: DatasetSpec) -> PointSet:
    """Parse a CSV into labeled points.

    Classification labels are mapped to dense class ids in order of first
    appearance; regression targets are parsed as floats. Row order is
    preserved.

    The header and the label column are resolved from the first rows by
    csv.reader. The data rows are then parsed in one np.loadtxt pass over
    every column, when the file's bytes show that it splits into the same
    fields as csv.reader would split it and the table is ncols wide;
    otherwise, or when np.loadtxt rejects a field, the per-row csv.reader
    loop parses the file and names the first bad line. Both parses give the
    same doubles and class ids.
    """
    with open(spec.path, newline="", encoding="utf-8-sig") as fh:  # skips a leading BOM
        rows = csv.reader(fh)
        header = next(rows, None) if spec.has_header else None
        if spec.has_header and header is None:
            raise DatasetError(f"{spec.path}: empty file")
        first = next(rows, None)
        if first is None:
            raise DatasetError(f"{spec.path}: no data rows")
        ncols = len(first if header is None else header)
        try:
            label_idx = _label_index(spec, header, ncols)
        except DatasetError:
            for _ in rows:  # a later decode or csv error is raised first, as a full read would
                pass
            raise
        parsed = _parse_columns(spec, ncols, label_idx)
        if parsed is None:
            parsed = _parse_rows(spec, [first, *rows], ncols, label_idx)
    return PointSet(*parsed, _copy=False)


def _label_index(spec: DatasetSpec, header: list[str] | None, ncols: int) -> int:
    if isinstance(spec.label_column, int):
        label_idx = spec.label_column
        if not -ncols <= label_idx < ncols:
            raise DatasetError(f"{spec.path}: label column index {label_idx} out of range")
        return label_idx % ncols
    if header is None:
        raise DatasetError(f"{spec.path}: label column by name requires a header")
    try:
        return header.index(spec.label_column)
    except ValueError:
        raise DatasetError(
            f"{spec.path}: unknown label column {spec.label_column!r}; have {header}"
        ) from None


def _parse_columns(spec: DatasetSpec, ncols: int, label_idx: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The data rows as (coords, labels) from one np.loadtxt pass, or None.

    None unless the bytes prove np.loadtxt sees csv.reader's fields: no
    quote (csv.reader unquotes), no NUL (csv.reader before Python 3.11
    rejects it), no lone CR (csv.reader ends a line there), no blank line
    (np.loadtxt skips it) and no line longer than csv.reader's field limit.
    The pass reads every column, so np.loadtxt raises on a row whose width
    differs from the first row's, and a table ncols wide rules out a ragged
    row. np.loadtxt reads a number as float() does, but accepts fewer
    spellings (no "1_0", no non-ASCII digits); None also when it rejects a
    field. A converter assigns class ids by _parse_rows' rule.
    """
    with open(spec.path, "rb") as fh:
        raw = fh.read()
    ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))  # the last line has no newline
    line_bytes = np.diff(ends, prepend=-1)  # its newline included
    crs = raw.count(b"\r")
    if (
        ncols < 2
        or b'"' in raw
        or b"\0" in raw
        or (crs and (crs != raw.count(b"\r\n") or b"\n\r\n" in raw))
        or (line_bytes == 1).any()
        or line_bytes.max() > csv.field_size_limit()
    ):
        return None
    del raw
    class_ids: dict[str, int] = {}
    classify = {label_idx: lambda s: class_ids.setdefault(s, len(class_ids))}
    try:
        table = np.loadtxt(
            spec.path,
            delimiter=",",
            comments=None,
            quotechar=None,
            skiprows=int(spec.has_header),
            encoding="utf-8-sig",
            ndmin=2,
            converters=classify if spec.task == "classification" else None,
        )
    except ValueError:
        return None
    if table.shape[1] != ncols:
        return None
    labels = table[:, label_idx].astype(np.int64 if spec.task == "classification" else float)  # a copy: frees the table
    return np.delete(table, label_idx, axis=1), labels


def _parse_rows(spec: DatasetSpec, rows: list[list[str]], ncols: int, label_idx: int) -> tuple[list, list]:
    """The data rows as (coords, labels), parsed row by row by csv.reader's fields.

    Raises DatasetError naming the line of the first ragged row, non-numeric
    feature or non-numeric regression target.
    """
    start_line = 2 if spec.has_header else 1
    coords: list[list[float]] = []
    labels: list[object] = []
    class_ids: dict[str, int] = {}
    for line, row in enumerate(rows, start_line):
        if len(row) != ncols:
            raise DatasetError(
                f"{spec.path}: line {line}: expected {ncols} columns, got {len(row)}"
            )
        raw_label = row[label_idx]
        try:
            coords.append([float(v) for j, v in enumerate(row) if j != label_idx])
        except ValueError as exc:
            raise DatasetError(f"{spec.path}: line {line}: non-numeric feature: {exc}") from None
        if spec.task == "classification":
            label = class_ids.setdefault(raw_label, len(class_ids))
        else:
            try:
                label = float(raw_label)
            except ValueError:
                raise DatasetError(
                    f"{spec.path}: line {line}: non-numeric regression target {raw_label!r}"
                ) from None
        labels.append(label)
    return coords, labels


def split(data: PointSet, fraction: float, seed: int) -> tuple[PointSet, PointSet]:
    """Deterministic shuffled train/test split; |train| = round(fraction*n).

    Points are re-indexed within each side so indices stay ordinal.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    n = len(data)
    n_train = round(fraction * n)
    if n_train == 0 or n_train == n:
        raise ValueError(f"degenerate split: {n_train}/{n - n_train} from n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    sides = perm[:n_train], perm[n_train:]
    return tuple(PointSet(data.coords.take(s, axis=0), data.labels.take(s), _copy=False) for s in sides)


@dataclass(frozen=True)
class Scaler:
    """Per-dimension affine rescaling fitted on the training split only."""

    kind: str
    shift: np.ndarray
    scale: np.ndarray

    def transform(self, coords: np.ndarray) -> np.ndarray:
        out = coords - self.shift
        out /= self.scale  # in place: one (n, d) temporary, not two
        return out

    def inverse_transform(self, coords: np.ndarray) -> np.ndarray:
        return coords * self.scale + self.shift


def fit_scaler(train: PointSet, kind: str) -> Scaler:
    """Fit scaling statistics on the training split.

    standard: (x - mean) / std, population std; zero-std dimensions pass
    through untouched. minmax: (x - min) / (max - min); zero-range
    dimensions map to the constant 0.5.
    """
    if kind not in SCALER_KINDS:
        raise ValueError(f"unknown scaler {kind!r}; expected one of {SCALER_KINDS}")
    coords = train.coords
    d = coords.shape[1]
    if kind == "none":
        return Scaler(kind, np.zeros(d), np.ones(d))
    if kind == "standard":
        mean = coords.mean(axis=0)
        std = coords.std(axis=0)
        shift = np.where(std > 0, mean, 0.0)
        scale = np.where(std > 0, std, 1.0)
        return Scaler(kind, shift, scale)
    lo = coords.min(axis=0)
    rng = coords.max(axis=0) - lo
    # Zero-range dimension: (x - (lo - 0.5)) / 1 == 0.5 for every x == lo.
    shift = np.where(rng > 0, lo, lo - 0.5)
    scale = np.where(rng > 0, rng, 1.0)
    return Scaler("minmax", shift, scale)


def apply_scaler(scaler: Scaler, points: PointSet) -> PointSet:
    return PointSet(scaler.transform(points.coords), points.labels, _copy=False)
