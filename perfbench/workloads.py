"""Seeded inputs and set-up paths of the benchmark workloads.

Every workload turns a seed into training data and a query pool, and knows
how to go from its raw input to a queryable index through the library's
public API. The seed drives the samples, labels and query directions; the
cluster geometry is fixed per workload, because random cluster centres move
the fitted grid between regimes from one seed to the next (17 to 1400 cells
at the same n), which would make every timing depend more on the seed than
on the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Far apart in every projection, so the fit rule ("most bins, none empty")
# lands on a few fat cells per cluster: splits 7/7/7 and about 40 cells.
CLUSTERED_CENTRES = np.array(
    [(20, 20, 20), (80, 20, 80), (20, 80, 80), (80, 80, 20), (50, 50, 50)], dtype=float
)
CSV_CENTRES = np.array(
    [
        (20, 20, 20, 20),
        (80, 20, 80, 50),
        (20, 80, 50, 80),
        (80, 80, 20, 80),
        (50, 50, 80, 20),
        (50, 20, 50, 80),
    ],
    dtype=float,
)
SIGMA = 2.0
# Cluster noise is Gaussian cut at 3 sigma. The fit rule reads each
# dimension's extreme values, and with untruncated tails they move from seed
# to seed, which moved the fitted splits of csv_pipeline between 7 and 10 per
# dimension. Cut tails put the extremes where the cut is.
TRUNCATE = 3.0
# 2% rather than 1%: with exactly 1% outliers p99 falls on the boundary
# between the inlier and outlier latencies and jumps between them.
OUTLIER_FRAC = 0.02
OUTLIER_DIAMETERS = 10.0
# Save + load repeats in one reload round are fixed per workload, so that
# a faster reload never gets more samples: a round takes 0.2 to 0.4 s on
# clustered and csv_pipeline and about 1.3 s on uniform.


@dataclass
class Prepared:
    """What the query phase needs once set-up has run."""

    index: object
    train_points: object  # the Sequence[LabeledPoint] the index was built from
    train_coords: np.ndarray
    queries: np.ndarray
    query_labels: np.ndarray


class ArrayWorkload:
    """Input is an (n, d) matrix and a label vector, already in memory."""

    def __init__(self, name, coords, labels, queries, query_labels, k, mode, reload_repeats):
        self.name = name
        self.coords = coords
        self.labels = labels
        self.queries = queries
        self.query_labels = query_labels
        self.k = k
        self.mode = mode
        self.reload_repeats = reload_repeats

    def setup(self, api):
        points = api.points_from_arrays(self.coords, self.labels)
        params = api.fit_cell_measurements(points)
        return api.build(points, params=params), points

    def prepare(self, setup_out) -> Prepared:
        index, points = setup_out
        return Prepared(index, points, self.coords, self.queries, self.query_labels)

    def cleanup(self) -> None:
        pass


class CsvWorkload:
    """Input is a CSV file; set-up is the CLI user's load/split/scale/fit/build path."""

    SPLIT = 0.99
    reload_repeats = 101

    def __init__(self, name, path: Path, truth: dict, label_ids: dict, seed, k, mode):
        self.name = name
        self.path = path
        self.truth = truth  # feature tuple -> generating cluster
        self.label_ids = label_ids  # label string -> dense id given by load_csv
        self.seed = seed
        self.k = k
        self.mode = mode

    def setup(self, api):
        data = api.load_csv(api.DatasetSpec(str(self.path), "label", "classification"))
        train, test = api.split(data, self.SPLIT, self.seed)
        scaler = api.fit_scaler(train, "standard")
        train_s = api.apply_scaler(scaler, train)
        test_s = api.apply_scaler(scaler, test)
        params = api.fit_cell_measurements(train_s)
        return api.build(train_s, params=params), train_s, test, test_s

    def prepare(self, setup_out) -> Prepared:
        index, train_s, test, test_s = setup_out
        coords = np.stack([p.coords for p in train_s])
        queries = np.stack([p.coords for p in test_s])
        # Test points are matched back to their rows by their raw features,
        # which load_csv parses to the same doubles that were written.
        truth = [self.label_ids[f"c{self.truth[tuple(p.coords.tolist())]}"] for p in test]
        return Prepared(index, train_s, coords, queries, np.array(truth))

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


def _cluster_noise(rng, shape) -> np.ndarray:
    """N(0, SIGMA^2) samples, redrawn until they lie within TRUNCATE sigmas."""
    x = rng.normal(size=shape)
    far = np.abs(x) > TRUNCATE
    while far.any():
        x[far] = rng.normal(size=int(far.sum()))
        far = np.abs(x) > TRUNCATE
    return SIGMA * x


def _clustered(seed: int, scale: float) -> ArrayWorkload:
    rng = np.random.default_rng(seed)
    n, n_queries = int(50_000 * scale), max(100, int(2000 * scale))
    labels = rng.integers(0, len(CLUSTERED_CENTRES), n)
    coords = CLUSTERED_CENTRES[labels] + _cluster_noise(rng, (n, 3))
    q_labels = rng.integers(0, len(CLUSTERED_CENTRES), n_queries)
    queries = CLUSTERED_CENTRES[q_labels] + _cluster_noise(rng, (n_queries, 3))
    n_out = int(round(OUTLIER_FRAC * n_queries))
    centroid = coords.mean(axis=0)
    diameter = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    u = rng.normal(size=(n_out, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    where = rng.choice(n_queries, n_out, replace=False)
    queries[where] = centroid + OUTLIER_DIAMETERS * diameter * u
    # An outlier's true label is its nearest cluster's.
    gaps = np.linalg.norm(queries[where, None, :] - CLUSTERED_CENTRES[None], axis=2)
    q_labels[where] = gaps.argmin(axis=1)
    return ArrayWorkload(
        "clustered", coords, labels, queries, q_labels, k=3, mode="heuristic", reload_repeats=101
    )


def _octant(x: np.ndarray) -> np.ndarray:
    return (x >= 50.0).astype(np.int64) @ np.array([1, 2, 4])


def _uniform(seed: int, scale: float) -> ArrayWorkload:
    rng = np.random.default_rng(seed)
    n, n_queries = int(50_000 * scale), max(100, int(1000 * scale))
    coords = rng.uniform(0, 100, (n, 3))
    queries = rng.uniform(0, 100, (n_queries, 3))
    return ArrayWorkload(
        "uniform",
        coords,
        _octant(coords),
        queries,
        _octant(queries),
        k=10,
        mode="guaranteed",
        reload_repeats=7,
    )


def _csv_pipeline(seed: int, scale: float, workdir: Path) -> CsvWorkload:
    rng = np.random.default_rng(seed)
    n = int(100_000 * scale)
    clusters = rng.integers(0, len(CSV_CENTRES), n)
    coords = CSV_CENTRES[clusters] + _cluster_noise(rng, (n, CSV_CENTRES.shape[1]))
    noisy = rng.random(n) < 0.10
    observed = np.where(noisy, rng.integers(0, len(CSV_CENTRES), n), clusters)
    path = workdir / f"csv_pipeline-{seed}.csv"
    rows = coords.tolist()
    # repr() round-trips every double, so parsed features equal these exactly.
    lines = ["f0,f1,f2,f3,label\n"]
    lines += [f"{a!r},{b!r},{c!r},{d!r},c{o}\n" for (a, b, c, d), o in zip(rows, observed.tolist())]
    path.write_text("".join(lines), encoding="utf-8")
    truth = {tuple(row): int(c) for row, c in zip(rows, clusters.tolist())}
    # load_csv numbers classes in order of first appearance.
    label_ids = {f"c{o}": i for i, o in enumerate(dict.fromkeys(observed.tolist()))}
    return CsvWorkload("csv_pipeline", path, truth, label_ids, seed, k=5, mode="heuristic")


WORKLOADS = ("clustered", "uniform", "csv_pipeline")


def make_workload(name: str, seed: int, workdir: Path, scale: float = 1.0):
    """Build the named workload's inputs from the seed; scale shrinks n for tests."""
    if name == "clustered":
        return _clustered(seed, scale)
    if name == "uniform":
        return _uniform(seed, scale)
    if name == "csv_pipeline":
        return _csv_pipeline(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
