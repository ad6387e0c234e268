"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import json
import time
from pathlib import Path

import numpy as np

from helpers import as_pairs
from gridneighbors import (
    GridParams,
    Neighbor,
    NeighborBuffer,
    brute_build,
    brute_knn,
    build,
    cell_points,
    hash_cell,
    kdtree_build,
    kdtree_knn,
    knn_query,
    layer_cell_count,
    layer_cells,
    points_from_arrays,
    run_bench,
    total_cell_count,
)
from gridneighbors.bench import main as bench_main
from gridneighbors.bench import strip_timing
from gridneighbors.datasets import DatasetSpec

DATA_CSV = str(Path(__file__).resolve().parent.parent / "data" / "clusters.csv")


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_instance(rng, family, n_lo=100, n_hi=20000):
    n = int(10 ** rng.uniform(np.log10(n_lo), np.log10(n_hi)))
    d = int(rng.integers(1, 7))
    if family == "clustered":
        c = int(rng.integers(2, 6))
        centers = rng.uniform(0, 100, (c, d))
        X = centers[rng.integers(0, c, n)] + rng.normal(0, rng.uniform(0.5, 3.0), (n, d))
    else:
        X = rng.uniform(0, 100, (n, d))
    return points_from_arrays(X, rng.integers(0, 4, n)), X


def test_criterion_1_layer_formulas():
    t0 = time.perf_counter()
    for d in range(1, 6):
        center = tuple(int(v) for v in np.arange(d) - 1)
        cumulative = 0
        for l in range(1, 5):
            shell = layer_cells(center, l)
            assert len(shell) == layer_cell_count(l, d), (l, d)
            cumulative += len(shell)
            assert cumulative == total_cell_count(l, d), (l, d)
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 10, f"enumerated counts match formulas for l<=4, d<=5 in {elapsed:.2f}s")


def test_criterion_2_paper_walkthrough():
    X = np.array(
        [
            [5.4, 5.4],  # central cell (5, 5): one point
            [4.2, 5.5],  # layer 1
            [6.7, 5.5],  # layer 1
            [5.5, 6.9],  # layer 1: buffer fills here
            [7.9, 7.9],  # layer 2: farther than all buffered points
            [9.5, 9.5],  # layer 4: forces the stop to be the quiet-layer rule
        ]
    )
    index = build(
        points_from_arrays(X, [0, 0, 1, 1, 1, 0]),
        params=GridParams([1.0, 1.0], [0.0, 0.0], [1, 1]),
    )
    neighbors, stats = knn_query(index, (5.5, 5.5), 3, "heuristic")
    ok = stats.layers_visited == 2 and len(neighbors) == 3
    _report(2, ok, f"stopped after quiet layer: layers_visited={stats.layers_visited}, "
                   f"returned {len(neighbors)} neighbors")


def test_criterion_3_guaranteed_oracle_equivalence():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(500):
        family = "clustered" if trial % 2 else "uniform"
        pts, X = _random_instance(rng, family)
        n = len(pts)
        index = build(pts)
        brute = brute_build(pts)
        if trial % 3 == 0:
            q = rng.uniform(-20, 120, X.shape[1])
        else:
            q = X[int(rng.integers(0, n))] + rng.normal(0, 0.5, X.shape[1])
        k = min(int(rng.choice([1, 3, 10])), n)
        got, _ = knn_query(index, q, k, "guaranteed")
        assert as_pairs(got) == as_pairs(brute_knn(brute, q, k)), (trial, family, n, k)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(3, checked == 500 and elapsed < 300,
            f"{checked} instances multiset-equal brute force in {elapsed:.1f}s")


def test_criterion_4_heuristic_recall():
    rng = np.random.default_rng(404)
    recalls = {}
    for family in ("clustered", "uniform"):
        scores = []
        for _ in range(120):
            pts, X = _random_instance(rng, family, n_hi=5000)
            n = len(pts)
            index = build(pts)
            brute = brute_build(pts)
            for _ in range(4):
                q = X[int(rng.integers(0, n))] + rng.normal(0, 0.3, X.shape[1])
                k = min(int(rng.choice([1, 3, 10])), n)
                got, _ = knn_query(index, q, k, "heuristic")
                exact = {nb.point_index for nb in brute_knn(brute, q, k)}
                scores.append(len({nb.point_index for nb in got} & exact) / k)
        recalls[family] = float(np.mean(scores))
    _report(4, recalls["clustered"] >= 0.98,
            f"heuristic recall@k: clustered={recalls['clustered']:.4f} (>=0.98 required), "
            f"uniform={recalls['uniform']:.4f} (reported)")


def test_criterion_5_accuracy_parity_on_bundled_csv():
    spec = DatasetSpec(DATA_CSV, "label", "classification")
    report = run_bench(spec, algos=("ghn", "brute"), k=3, mode="heuristic",
                       scaler_kind="standard", seed=0)
    ghn, brute = report.algorithms
    diff = abs(ghn.accuracy - brute.accuracy)
    _report(5, diff <= 0.03,
            f"accuracy ghn={ghn.accuracy:.4f} brute={brute.accuracy:.4f} |diff|={diff:.4f} <= 0.03")


def test_criterion_6_speed_direction():
    rng = np.random.default_rng(606)
    n, d, k, n_queries = 50000, 3, 3, 1000
    centers = rng.uniform(0, 100, (5, d))
    X = centers[rng.integers(0, 5, n)] + rng.normal(0, 2.0, (n, d))
    pts = points_from_arrays(X, rng.integers(0, 3, n))
    queries = centers[rng.integers(0, 5, n_queries)] + rng.normal(0, 2.0, (n_queries, d))

    index = build(pts)
    brute = brute_build(pts)
    t0 = time.perf_counter()
    for q in queries:
        knn_query(index, q, k, "heuristic")
    ghn_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q in queries:
        brute_knn(brute, q, k)
    brute_time = time.perf_counter() - t0
    _report(6, ghn_time < 0.5 * brute_time,
            f"ghn={ghn_time * 1e3:.0f}ms brute={brute_time * 1e3:.0f}ms "
            f"ratio={ghn_time / brute_time:.2f} (< 0.5 required)")


def test_criterion_7_constant_time_tendency():
    rng = np.random.default_rng(707)
    # Four touching uniform boxes along the diagonal: clustered in 2-d while
    # each 1-d projection stays dense, so the fitted grid keeps refining.
    def sample(m):
        box = rng.integers(0, 4, m)
        return np.column_stack([rng.uniform(0, 25, m), rng.uniform(0, 25, m)]) + 25 * box[:, None]

    queries = sample(200)
    scanned = {}
    for n in (12500, 25000, 50000, 100000):
        X = sample(n)
        index = build(points_from_arrays(X, [0] * n))
        stats = [knn_query(index, q, 3, "heuristic")[1] for q in queries]
        scanned[n] = float(np.mean([s.points_scanned for s in stats]))
    growth = scanned[100000] / scanned[12500]
    _report(7, growth < 4.0,
            f"mean points_scanned per query: {scanned} -> growth {growth:.2f}x "
            f"(< 4x required while n grows 8x)")


def test_criterion_8_structure_property_suites():
    rng = np.random.default_rng(808)

    # heap vs sort-and-truncate oracle
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        m = int(rng.integers(1, 30))
        dists = rng.uniform(0, 10, m).round(int(rng.integers(0, 3)))
        buf = NeighborBuffer(k)
        for i, dv in enumerate(dists):
            buf.push(Neighbor(float(dv), i))
        got = [(nb.distance, nb.point_index) for nb in buf.neighbors()]
        assert got == sorted(zip(dists.tolist(), range(m)))[:k]

    # grid structure: at most n cells, CSR arrays cover every point once,
    # and round-trip retrieval
    for _ in range(1000):
        n = int(rng.integers(1, 80))
        d = int(rng.integers(1, 5))
        X = rng.normal(0, rng.uniform(0.5, 5), (n, d)) + rng.uniform(-10, 10, d)
        index = build(points_from_arrays(X, [0] * n))
        assert len(index.cell_array) <= n
        assert index.offsets[-1] == n
        assert np.array_equal(np.sort(index.order), np.arange(n))
        i = int(rng.integers(0, n))
        assert i in cell_points(index, hash_cell(X[i], index.params))

    # kd-tree equals brute force
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 7))
        X = rng.normal(0, 3, (n, d))
        pts = points_from_arrays(X, [0] * n)
        tree = kdtree_build(pts, leaf_size=int(rng.integers(1, 12)))
        brute = brute_build(pts)
        q = rng.normal(0, 4, d)
        k = int(rng.integers(1, n + 1))
        assert as_pairs(kdtree_knn(tree, q, k)) == as_pairs(brute_knn(brute, q, k))

    _report(8, True, "heap-vs-sort, grid structure, and kdtree-vs-brute suites "
                     "green at 1000 randomized cases each")


def test_criterion_9_cli_determinism(tmp_path):
    reports = []
    for name in ("run1.json", "run2.json"):
        out = tmp_path / name
        bench_main([
            "--dataset", DATA_CSV, "--label-col", "label", "--task", "cls",
            "--k", "3", "--algos", "ghn,brute,kdtree", "--mode", "heuristic",
            "--scale", "standard", "--split", "0.8", "--seed", "42",
            "--repeats", "1", "--report", "json", "--out", str(out),
        ])
        reports.append(strip_timing(json.loads(out.read_text())))
    _report(9, reports[0] == reports[1],
            "two CLI runs with identical flags agree on all non-timing fields")
