"""Benchmark harness: build each algorithm on a train split, time test-set
prediction, and report accuracy/RMSE plus recall against brute force.

Also exposes the CLI entry point (`bench` / `ghn-bench`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Sequence

import numpy as np

from . import baselines, datasets, explore, grid, predict
from .core import LabeledPoint, METRICS

SCHEMA_VERSION = 1
ALGOS = ("ghn", "brute", "kdtree")

# Report fields ending in _ms are timing measurements; everything else is
# deterministic for a fixed (dataset, seed, k, mode).
TIMING_SUFFIX = "_ms"


@dataclass
class AlgoResult:
    name: str
    build_ms: float
    total_predict_ms: float
    mean_query_ms: float
    recall_at_k: float
    accuracy: float | None = None
    rmse: float | None = None
    mean_layers_visited: float | None = None
    mean_cells_visited: float | None = None
    mean_points_scanned: float | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name}
        for key in (
            "build_ms",
            "total_predict_ms",
            "mean_query_ms",
            "recall_at_k",
            "accuracy",
            "rmse",
            "mean_layers_visited",
            "mean_cells_visited",
            "mean_points_scanned",
        ):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass
class BenchReport:
    env: dict
    algorithms: list[AlgoResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "env": self.env,
            "algorithms": [a.to_dict() for a in self.algorithms],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        rows = [a.to_dict() for a in self.algorithms]
        cols: list[str] = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_cell(row.get(c)) for c in cols))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        rows = [a.to_dict() for a in self.algorithms]
        cols: list[str] = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        table = [[_cell(row.get(c)) for c in cols] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in table)) for i, c in enumerate(cols)]
        head = "| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |"
        sep = "| " + " | ".join("-" * w for w in widths) + " |"
        body = ["| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |" for row in table]
        meta = ", ".join(f"{k}={v}" for k, v in sorted(self.env.items()))
        return "\n".join([f"<!-- schema_version={SCHEMA_VERSION}; {meta} -->", head, sep] + body) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _predict(neighbors, task: str):
    if task == "classification":
        return predict.classify(neighbors).value
    return predict.regress(neighbors, "mean").value


def run_bench(
    data: "datasets.DatasetSpec | Sequence[LabeledPoint]",
    algos: Sequence[str] = ALGOS,
    k: int = 3,
    mode: str = "heuristic",
    scaler_kind: str = "standard",
    seed: int = 0,
    repeats: int = 1,
    split_fraction: float = 0.8,
    task: str | None = None,
    metric: str = "euclidean",
) -> BenchReport:
    """Run the evaluation protocol on one dataset.

    Prediction time is the median over `repeats` timed passes of the test
    set; index build and scaling are timed separately. Accuracy (or RMSE)
    and recall@k are computed against the brute-force exact neighbor sets.
    """
    if isinstance(data, datasets.DatasetSpec):
        task = data.task
        points = datasets.load_csv(data)
    else:
        if task is None:
            raise ValueError("task is required when passing points directly")
        points = list(data)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    unknown = set(algos) - set(ALGOS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")

    train, test = datasets.split(points, split_fraction, seed)
    if k > len(train):
        raise ValueError(f"k={k} exceeds training size {len(train)}")
    scaler = datasets.fit_scaler(train, scaler_kind)
    train_s = datasets.apply_scaler(scaler, train)
    test_s = datasets.apply_scaler(scaler, test)
    queries = [p.coords for p in test_s]
    truth = [p.label for p in test_s]

    # Exact neighbor sets, for recall and (optionally) the brute row.
    brute = baselines.brute_build(train_s, metric)
    exact_sets = [frozenset(n.point_index for n in baselines.brute_knn(brute, q, k)) for q in queries]

    env = {
        "seed": seed,
        "n_train": len(train),
        "n_test": len(test),
        "d": train_s[0].dim,
        "k": k,
        "mode": mode,
        "scaler": scaler_kind,
        "metric": metric,
        "task": task,
        "split_fraction": split_fraction,
        "repeats": repeats,
    }
    report = BenchReport(env=env)

    for name in algos:
        t0 = time.perf_counter()
        # Every query returns (neighbors, stats); only the grid has stats.
        if name == "ghn":
            index = grid.build(train_s, metric)
            query = lambda q: explore.knn_query(index, q, k, mode)
        elif name == "brute":
            query = lambda q: (baselines.brute_knn(brute, q, k), None)
        else:
            tree = baselines.kdtree_build(train_s, metric)
            query = lambda q: (baselines.kdtree_knn(tree, q, k), None)
        build_ms = (time.perf_counter() - t0) * 1e3

        times = []
        answers = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            answers = [query(q) for q in queries]
            times.append((time.perf_counter() - t0) * 1e3)
        total_ms = median(times)
        results = [nbrs for nbrs, _ in answers]

        preds = [_predict(nbrs, task) for nbrs in results]
        recall = float(
            np.mean([
                len({n.point_index for n in nbrs} & exact) / k
                for nbrs, exact in zip(results, exact_sets)
            ])
        )
        row = AlgoResult(
            name=name,
            build_ms=build_ms,
            total_predict_ms=total_ms,
            mean_query_ms=total_ms / len(queries),
            recall_at_k=recall,
        )
        if task == "classification":
            row.accuracy = float(np.mean([p == t for p, t in zip(preds, truth)]))
        else:
            row.rmse = float(np.sqrt(np.mean([(p - t) ** 2 for p, t in zip(preds, truth)])))
        if name == "ghn":
            stats = [st for _, st in answers]
            row.mean_layers_visited = float(np.mean([s.layers_visited for s in stats]))
            row.mean_cells_visited = float(np.mean([s.cells_visited for s in stats]))
            row.mean_points_scanned = float(np.mean([s.points_scanned for s in stats]))
        report.algorithms.append(row)
    return report


def strip_timing(obj):
    """Drop timing fields from a report dict, for determinism comparisons."""
    if isinstance(obj, dict):
        return {
            k: strip_timing(v) for k, v in obj.items() if not k.endswith(TIMING_SUFFIX)
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark grid-hashing KNN against brute force and a kd-tree on a CSV dataset.",
    )
    parser.add_argument("--dataset", required=True, help="path to a CSV file")
    parser.add_argument("--label-col", required=True, help="label column name or index")
    parser.add_argument("--task", choices=("cls", "reg"), default="cls")
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--algos", default="ghn,brute,kdtree", help="comma-separated subset of ghn,brute,kdtree")
    parser.add_argument("--mode", choices=explore.STOP_MODES, default="heuristic")
    parser.add_argument("--scale", choices=datasets.SCALER_KINDS, default="standard")
    parser.add_argument("--split", type=float, default=0.8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--metric", choices=METRICS, default="euclidean")
    parser.add_argument("--report", choices=("json", "csv", "md"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--no-header", action="store_true", help="CSV file has no header row")
    args = parser.parse_args(argv)

    label_col: str | int = args.label_col
    if isinstance(label_col, str) and label_col.lstrip("-").isdigit():
        label_col = int(label_col)
    spec = datasets.DatasetSpec(
        path=args.dataset,
        label_column=label_col,
        task="classification" if args.task == "cls" else "regression",
        has_header=not args.no_header,
    )
    algos = tuple(a.strip() for a in args.algos.split(",") if a.strip())
    report = run_bench(
        spec,
        algos=algos,
        k=args.k,
        mode=args.mode,
        scaler_kind=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        split_fraction=args.split,
        metric=args.metric,
    )
    text = {"json": report.to_json, "csv": report.to_csv, "md": report.to_markdown}[args.report]()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
