"""Frozen reference for load_csv: the per-row csv.reader parse, kept as an
oracle for the vectorised one.

reference_load_csv below is the earlier implementation, copied unchanged
but for its name. Tests require load_csv to return the same PointSet, or
raise the same error, on every input.
"""

from __future__ import annotations

import csv

from gridneighbors.core import PointSet
from gridneighbors.datasets import DatasetError, DatasetSpec


def reference_load_csv(spec: DatasetSpec) -> PointSet:
    """Parse a CSV into labeled points.

    Classification labels are mapped to dense class ids in order of first
    appearance; regression targets are parsed as floats. Row order is
    preserved.
    """
    with open(spec.path, newline="", encoding="utf-8-sig") as fh:  # skips a leading BOM
        rows = list(csv.reader(fh))
    start_line = 1
    header: list[str] | None = None
    if spec.has_header:
        if not rows:
            raise DatasetError(f"{spec.path}: empty file")
        header = rows[0]
        rows = rows[1:]
        start_line = 2
    if not rows:
        raise DatasetError(f"{spec.path}: no data rows")
    ncols = len(rows[0]) if header is None else len(header)

    if isinstance(spec.label_column, int):
        label_idx = spec.label_column
        if not -ncols <= label_idx < ncols:
            raise DatasetError(f"{spec.path}: label column index {label_idx} out of range")
        label_idx %= ncols
    else:
        if header is None:
            raise DatasetError(f"{spec.path}: label column by name requires a header")
        try:
            label_idx = header.index(spec.label_column)
        except ValueError:
            raise DatasetError(
                f"{spec.path}: unknown label column {spec.label_column!r}; have {header}"
            ) from None

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
    return PointSet(coords, labels)
