"""Dataset plumbing for the benchmark harness: CSV loading, train/test
splitting, and feature scaling.

Each step takes and returns a PointSet and works on its whole coords
matrix; no step builds a per-row object.
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
    return tuple(PointSet(data.coords[s], data.labels[s]) for s in sides)


@dataclass(frozen=True)
class Scaler:
    """Per-dimension affine rescaling fitted on the training split only."""

    kind: str
    shift: np.ndarray
    scale: np.ndarray

    def transform(self, coords: np.ndarray) -> np.ndarray:
        return (coords - self.shift) / self.scale

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
    return PointSet(scaler.transform(points.coords), points.labels)
