"""Grid-hashing nearest neighbors: a virtual grid buckets training points
into cells, and queries explore cells layer by layer outward from the
query's cell. Exact brute-force and kd-tree baselines are included, along
with a CSV benchmark harness.
"""

from .baselines import BruteIndex, KdTree, brute_build, brute_knn, kdtree_build, kdtree_knn
from .core import (
    METRICS,
    LabeledPoint,
    Neighbor,
    NeighborBuffer,
    distance,
    points_from_arrays,
)
from .datasets import DatasetSpec, Scaler, apply_scaler, fit_scaler, load_csv, split
from .explore import (
    STOP_MODES,
    QueryStats,
    knn_query,
    layer_cell_count,
    layer_cells,
    total_cell_count,
)
from .grid import (
    GridIndex,
    GridParams,
    build,
    cell_points,
    fit_cell_measurements,
    hash_cell,
    load_index,
    save_index,
)
from .predict import Prediction, classify, regress

__version__ = "0.1.0"

__all__ = [
    "METRICS",
    "STOP_MODES",
    "BenchReport",
    "BruteIndex",
    "DatasetSpec",
    "GridIndex",
    "GridParams",
    "KdTree",
    "LabeledPoint",
    "Neighbor",
    "NeighborBuffer",
    "Prediction",
    "QueryStats",
    "Scaler",
    "apply_scaler",
    "brute_build",
    "brute_knn",
    "build",
    "cell_points",
    "classify",
    "distance",
    "fit_cell_measurements",
    "fit_scaler",
    "hash_cell",
    "kdtree_build",
    "kdtree_knn",
    "knn_query",
    "layer_cell_count",
    "layer_cells",
    "load_csv",
    "load_index",
    "points_from_arrays",
    "regress",
    "run_bench",
    "save_index",
    "split",
    "total_cell_count",
]


def __getattr__(name):
    # The bench module is imported on first use, so that `python -m
    # gridneighbors.bench` does not find it already imported by the package.
    if name in ("BenchReport", "run_bench"):
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
