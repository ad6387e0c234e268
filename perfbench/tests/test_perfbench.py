"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridneighbors import brute_build, brute_knn, points_from_arrays
from perfbench.harness import run_workload
from perfbench.oracle import exact_knn
from perfbench.tracing import layer_api
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.04  # 2k points for the array workloads, 4k CSV rows


def tiny(name, tmp_path, trace=False, api=None, seed=3):
    return run_workload(name, seed, 0.0, trace, tmp_path, scale=TINY, api=api)


def test_oracle_equals_brute_knn_on_ties():
    # An integer lattice with every point doubled: almost every distance ties.
    grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
    coords = np.concatenate([grid, grid])
    queries = np.array([[2.5, 2.5, 2.5], [0.0, 0.0, 0.0], [1.0, 2.0, 9.0], [3.0, 3.0, 2.5]])
    brute = brute_build(points_from_arrays(coords, [0] * len(coords)))
    for k in (1, 7, 30):
        idx, dist = exact_knn(coords, queries, k)
        for q, i, d in zip(queries, idx, dist):
            want = brute_knn(brute, q, k)
            assert i.tolist() == [nb.point_index for nb in want]
            assert d.tolist() == [nb.distance for nb in want]


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_the_spec_metrics(name, tmp_path):
    untraced = tiny(name, tmp_path)
    assert untraced.correct, untraced.problems
    assert list(untraced.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value, _ in untraced.metrics.values())
    traced = tiny(name, tmp_path, trace=True)
    assert traced.correct, traced.problems
    assert sorted(traced.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for metrics in (untraced.metrics, traced.metrics):
        assert all(unit == units[n] for n, (_, unit) in metrics.items())
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.ghn"))


def _tampered(edit):
    api = layer_api()
    knn_query = api.knn_query

    def wrong(index, q, k, mode="heuristic"):
        neighbors, stats = knn_query(index, q, k, mode)
        return edit(list(neighbors)), stats

    api.knn_query = wrong
    return api


@pytest.mark.parametrize(
    "edit",
    [lambda nbs: nbs[:-1], lambda nbs: [nbs[1], nbs[0], *nbs[2:]]],
    ids=["dropped", "swapped"],
)
def test_a_wrong_answer_raises_failed_frac(edit, tmp_path):
    out = tiny("clustered", tmp_path, api=_tampered(edit))
    assert not out.correct
    assert out.failed > 0
    assert out.metrics["ok_frac"][0] < 1.0


def test_counts_repeat_with_the_same_seed(tmp_path):
    counts = (
        "grid.cells",
        "explore.points_scanned.mean",
        "explore.points_scanned.p99",
        "explore.layers_visited.mean",
        "explore.layers_visited.p99",
        "explore.cells_visited.mean",
    )
    first, second = (tiny("uniform", tmp_path, trace=True) for _ in range(2))
    assert {c: first.metrics[c] for c in counts} == {c: second.metrics[c] for c in counts}


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "clustered", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_latency_samples_do_not_grow_with_seconds(tmp_path):
    short = run_workload("clustered", 3, 0.0, False, tmp_path, scale=TINY)
    long = run_workload("clustered", 3, 1.0, False, tmp_path, scale=TINY)
    assert long.samples > short.samples
    assert long.ranked == short.ranked == 100  # the pool
