"""One benchmark run: set-up, reload and query phases, checks and metrics.

The benchmark is a closed loop with one client: each query is
sent when the previous answer is back. It calls only the library's public
functions. The untraced run gives the end-to-end metrics; the traced run
wraps every call in a span and gives the per-layer metrics, plus the
tracing overhead measured against untraced queries in the same run.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import gridneighbors
import numpy as np

from . import oracle
from .tracing import LAYERS, Tracer, layer_api
from .workloads import make_workload

SETUP_REPEATS = 3
RELOAD_CHILD = Path(__file__).with_name("reload_child.py")
# A pool query's latency is the median of its asks in the first QUERY_PASSES
# passes over the pool. Passes that fill the rest of --seconds count only
# towards query_per_s and the checks, so the code's speed never sets a
# sample count.
QUERY_PASSES = 3
CROSS_CHECKS = 16  # pool queries also answered by brute_knn in every run
BRUTE_SAMPLE = 50
KDTREE_SAMPLE = 200
BLOCK = 25  # queries asked back to back by one plan in the traced run
# Calls that turn a workload's raw input into training and query points.
INPUT_CALLS = [("core", "points_from_arrays")] + [("datasets", fn) for fn in LAYERS["datasets"]]


@dataclass
class Outcome:
    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    problems: list = field(default_factory=list)  # why answers failed, deduplicated
    splits: list = field(default_factory=list)
    samples: int = 0  # queries asked in all
    ranked: int = 0  # pool queries that p50 and p99 rank
    spans: dict = field(default_factory=dict)  # span name -> (calls, busy seconds)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def fail(self, why: str) -> None:
        self.failed += 1
        if why not in self.problems:
            self.problems.append(why)


class Checker:
    """Oracle answers for a query pool, and the check of every answer against them."""

    def __init__(self, prep, k: int, mode: str):
        self.prep = prep
        self.k = k
        self.guaranteed = mode == "guaranteed"
        self.idx, self.dist = oracle.exact_knn(prep.train_coords, prep.queries, k)

    def cross_check(self, api, outcome: Outcome) -> None:
        """The oracle must agree exactly with brute_knn on a sample of the pool."""
        brute = api.brute_build(self.prep.train_points)
        for j in _sample(len(self.prep.queries), CROSS_CHECKS):
            outcome.attempted += 1
            got = api.brute_knn(brute, self.prep.queries[j], self.k)
            if [nb.point_index for nb in got] != self.idx[j].tolist() or [
                nb.distance for nb in got
            ] != self.dist[j].tolist():
                outcome.fail("oracle disagrees with brute_knn")

    def check(self, j: int, neighbors, exact: bool = False):
        """Why the answer to pool query j is wrong, or None; exact demands the oracle's answer."""
        return oracle.check_answer(
            neighbors,
            self.prep.queries[j],
            self.k,
            self.prep.train_coords,
            self.idx[j],
            self.dist[j],
            self.guaranteed or exact,
        )


def _sample(m: int, size: int) -> range:
    return range(0, m, max(1, m // size))[:size]


def _pct_us(seconds, q) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e6


def _quiet_heap() -> None:
    """Collect, then move every live object out of the collector's reach.

    Queries then set off collections that scan only what they allocate
    themselves, not the benchmark's answer log and inputs, which grow during
    a run and differ between workloads.
    """
    gc.collect()
    gc.freeze()


def _ask(api, index, q, k, mode):
    """One query as the user sees it: knn_query then classify, timed together."""
    t0 = time.perf_counter()
    try:
        neighbors, stats = api.knn_query(index, q, k, mode)
        prediction = api.classify(neighbors)
    except Exception as exc:  # a query that raises is a failed query, not a failed run
        return time.perf_counter() - t0, None, None, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, neighbors, stats, prediction, None


def _ask_pool(plans, index, prep, k, mode, pass_no):
    """Ask every pool query once per plan (api, tracer); one pass.

    Plans take turns block by block, the order rotating from block to
    block, so that they share the machine's good and bad moments without
    one always asking a query the other has just asked. Returns, per plan,
    (pool position, latency, neighbors, stats, prediction, error) for each
    query, and the pass's wall time.
    """
    m = len(prep.queries)
    answers = [[] for _ in plans]
    _quiet_heap()
    start = time.perf_counter()
    for b in range(0, m, BLOCK):
        for r in range(len(plans)):
            p = (b // BLOCK + r) % len(plans)
            api, tracer = plans[p]
            for j in range(b, min(b + BLOCK, m)):
                if tracer is not None:
                    tracer.begin("query", qid=pass_no * m + j)
                answers[p].append((j, *_ask(api, index, prep.queries[j], k, mode)))
                if tracer is not None:
                    tracer.end()
    return answers, time.perf_counter() - start


def _median_latencies(answers, m) -> list:
    """Each pool query's median over its successful asks.

    Other tenants of a shared machine slow every ask made during a burst of
    their work; the median of asks made passes apart leaves one such ask out.
    """
    asks = [[] for _ in range(m)]
    for j, latency, *_, error in answers:
        if error is None:
            asks[j].append(latency)
    return [statistics.median(a) for a in asks if a]


def _score(answers, checker: Checker, prep, outcome: Outcome):
    """Check every answer; recall and accuracy over the first pass of the pool."""
    m = len(prep.queries)
    recalls, hits = [], []
    for step, (j, _, neighbors, _, prediction, error) in enumerate(answers):
        outcome.attempted += 1
        why = error or checker.check(j, neighbors)
        if why:
            outcome.fail(why)
        if step < m:
            recalls.append(oracle.recall(neighbors, checker.idx[j]) if neighbors else 0.0)
            hits.append(prediction is not None and prediction.value == prep.query_labels[j])
    return float(np.mean(recalls)), float(np.mean(hits))


def _grid_shape(prep) -> dict:
    """Cell occupancy derived from the training data and the fitted widths."""
    params = prep.index.params
    cells = np.floor(prep.train_coords / params.widths).astype(np.int64)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    return {
        "grid.cells": (len(counts), "count"),
        "grid.points_per_cell.p50": (float(np.median(counts)), "count"),
        "grid.points_per_cell.max": (int(counts.max()), "count"),
        "grid.splits": (int(np.prod(params.splits)), "count"),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path, scale: float = 1.0, api=None
) -> Outcome:
    """Run one workload; `api` replaces the library functions (tests only)."""
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(name, seed, workdir, scale)
    try:
        if trace:
            return _traced(wl, seed, seconds, workdir)
        return _untraced(wl, seconds, workdir, api or layer_api())
    finally:
        wl.cleanup()
        gc.unfreeze()


def _reload_round(path, repeats) -> list:
    """Times of save_index + load_index of the saved index, in a fresh process.

    reload_s stands for the cold start of a process that serves a saved
    index. In the benchmark's own process, whose heap holds the inputs and
    the answer log, reload_s of one uniform seed ranged from 0.12 to 0.21 s
    between runs.
    """
    library = Path(gridneighbors.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(RELOAD_CHILD), str(path), str(repeats)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(library)},
    )
    return [float(t) for t in done.stdout.split()]


def _untraced(wl, seconds, workdir, api) -> Outcome:
    out = Outcome(wl.name)
    gc.collect()
    tracemalloc.start()
    try:
        wl.setup(api)  # also warms the process up for the timed set-ups
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        built = wl.setup(api)
        setup_times.append(time.perf_counter() - t0)
    prep = wl.prepare(built)

    # The pool is asked QUERY_PASSES times, with a round of reloads before
    # the first pass and after each one, then again until `seconds` of query
    # time have passed. reload_s is the median of every repeat of every
    # round: the rounds lie seconds apart, so one slow moment of a shared
    # machine does not decide the number.
    path = workdir / f"index-{os.getpid()}.ghn"
    answers, busy, passes = [], 0.0, 0
    try:
        api.save_index(prep.index, path)
        loaded = prep.index = api.load_index(path)
        rounds = [_reload_round(path, wl.reload_repeats)]
        out.splits = loaded.params.splits.tolist()
        checker = Checker(prep, wl.k, wl.mode)
        checker.cross_check(api, out)
        while passes < QUERY_PASSES or busy < seconds:
            (asked,), wall = _ask_pool([(api, None)], loaded, prep, wl.k, wl.mode, passes)
            answers += asked
            busy += wall
            passes += 1
            if passes <= QUERY_PASSES:
                rounds.append(_reload_round(path, wl.reload_repeats))
    finally:
        path.unlink(missing_ok=True)
    recall, accuracy = _score(answers, checker, prep, out)
    m = len(prep.queries)
    latencies = _median_latencies(answers[: QUERY_PASSES * m], m)
    out.samples = len(answers)
    out.ranked = len(latencies)
    out.metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "reload_s": (statistics.median(t for r in rounds for t in r), "s"),
        "query_p50_us": (_pct_us(latencies, 50), "us"),
        "query_p99_us": (_pct_us(latencies, 99), "us"),
        "query_per_s": (len(answers) / busy, "1/s"),
        "recall_at_k": (recall, "ratio"),
        "accuracy": (accuracy, "ratio"),
        "setup_peak_mb": (peak / 1e6, "MB"),
        "ok_frac": (1.0 - out.failed / out.attempted, "ratio"),
    }
    return out


def _traced(wl, seed, seconds, workdir) -> Outcome:
    out = Outcome(wl.name)
    tracer = Tracer()
    api = layer_api(tracer)
    prep = wl.prepare(wl.setup(api))
    path = workdir / f"index-{os.getpid()}.ghn"
    try:
        api.save_index(prep.index, path)
        prep.index = api.load_index(path)
    finally:
        path.unlink(missing_ok=True)
    out.splits = prep.index.params.splits.tolist()
    checker = Checker(prep, wl.k, wl.mode)
    checker.cross_check(api, out)

    # Untraced and traced queries share the query phase; the overhead
    # compares the same first pass over the pool.
    m = len(prep.queries)
    first_query_span = len(tracer.spans)
    plans = [(layer_api(), None), (api, tracer)]
    untraced, traced, busy = [], [], 0.0
    while not traced or busy < seconds:
        (u, t), wall = _ask_pool(plans, prep.index, prep, wl.k, wl.mode, len(traced) // m)
        untraced += u
        traced += t
        busy += wall
    _score(untraced, checker, prep, out)
    _score(traced, checker, prep, out)
    overhead = sum(a[1] for a in traced[:m]) / sum(a[1] for a in untraced[:m]) - 1.0

    stats = [a[3] for a in traced[:m] if a[3] is not None]
    scanned = np.array([s.points_scanned for s in stats])
    layers = np.array([s.layers_visited for s in stats])
    cells = np.array([s.cells_visited for s in stats])
    first_pass = [s for s in tracer.spans[first_query_span:] if s[4] < m]
    knn = [s[2] - s[1] for s in first_pass if s[0] == "explore.knn_query"]
    cls = [s[2] - s[1] for s in first_pass if s[0] == "predict.classify"]

    def span_busy(name):
        return (sum(tracer.durations(name)), "s")

    # The two input paths share one metric, so that every workload reports
    # every metric; the split by function is in out.spans.
    input_s = sum(sum(tracer.durations(f"{layer}.{fn}")) for layer, fn in INPUT_CALLS)
    metrics = {
        "setup.input.s": (input_s, "s"),
        "grid.fit_cell_measurements.s": span_busy("grid.fit_cell_measurements"),
        "grid.build.s": span_busy("grid.build"),
        "grid.save_index.s": span_busy("grid.save_index"),
        "grid.load_index.s": span_busy("grid.load_index"),
        **_grid_shape(prep),
        "explore.knn_query.p50_us": (_pct_us(knn, 50), "us"),
        "explore.knn_query.p99_us": (_pct_us(knn, 99), "us"),
        "explore.knn_query.s": (sum(knn), "s"),
        "explore.points_scanned.mean": (float(scanned.mean()), "count"),
        "explore.points_scanned.p99": (float(np.percentile(scanned, 99)), "count"),
        "explore.useful_frac": (wl.k * len(stats) / float(scanned.sum()), "ratio"),
        "explore.layers_visited.mean": (float(layers.mean()), "count"),
        "explore.layers_visited.p99": (float(np.percentile(layers, 99)), "count"),
        "explore.cells_visited.mean": (float(cells.mean()), "count"),
        "explore.cells_per_layer": (float(cells.sum() / (layers + 1).sum()), "count"),
        "predict.classify.s": (sum(cls), "s"),
        "predict.classify.p50_us": (_pct_us(cls, 50), "us"),
    }
    metrics.update(_yardsticks(api, prep, checker, wl.k, out))
    metrics["explore.vs_kdtree"] = (
        metrics["explore.knn_query.p50_us"][0] / metrics["baselines.kdtree_knn.p50_us"][0],
        "ratio",
    )
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    out.metrics = metrics
    out.samples = len(untraced) + len(traced)
    out.ranked = m
    for name in dict.fromkeys(s[0] for s in tracer.spans):
        durations = tracer.durations(name)
        out.spans[name] = (len(durations), sum(durations))
    tracer.dump(
        workdir / f"trace-{wl.name}.json",
        {"workload": wl.name, "seed": seed, "splits": out.splits},
    )
    return out


def _timed_answers(fn, prep, sample, checker, out):
    """Per-query latencies of fn(q) over the sample, each answer checked."""
    times = []
    for j in sample:
        out.attempted += 1
        t0 = time.perf_counter()
        neighbors = fn(prep.queries[j])
        times.append(time.perf_counter() - t0)
        why = checker.check(j, neighbors, exact=True)
        if why:
            out.fail(f"baseline: {why}")
    return times


def _yardsticks(api, prep, checker, k, out) -> dict:
    """Exact baselines on a fixed sample of the pool; no end-to-end metric moves with these."""
    m = len(prep.queries)
    brute = api.brute_build(prep.train_points)
    brute_t = _timed_answers(
        lambda q: api.brute_knn(brute, q, k), prep, _sample(m, BRUTE_SAMPLE), checker, out
    )
    t0 = time.perf_counter()
    tree = api.kdtree_build(prep.train_points)
    kd_build = time.perf_counter() - t0
    kd_t = _timed_answers(
        lambda q: api.kdtree_knn(tree, q, k), prep, _sample(m, KDTREE_SAMPLE), checker, out
    )
    metrics = {
        "baselines.brute_knn.p50_us": (_pct_us(brute_t, 50), "us"),
        "baselines.kdtree_build.s": (kd_build, "s"),
        "baselines.kdtree_knn.p50_us": (_pct_us(kd_t, 50), "us"),
    }
    try:
        from scipy.spatial import cKDTree
    except ImportError:  # scipy is an optional yardstick, never a dependency
        return metrics
    ck = cKDTree(prep.train_coords)
    times = []
    for j in _sample(m, KDTREE_SAMPLE):
        t0 = time.perf_counter()
        ck.query(prep.queries[j], k)
        times.append(time.perf_counter() - t0)
    metrics["ref.ckdtree.p50_us"] = (_pct_us(times, 50), "us")
    return metrics
