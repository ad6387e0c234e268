import json
from pathlib import Path

import numpy as np
import pytest

from conftest import clustered
from gridneighbors import DatasetSpec, run_bench
from gridneighbors.bench import main, strip_timing

DATA_CSV = str(Path(__file__).resolve().parent.parent / "data" / "clusters.csv")


def _spec():
    return DatasetSpec(DATA_CSV, "label", "classification")


class TestRunBench:
    def test_brute_recall_is_one(self, rng):
        pts, _ = clustered(rng, 200, 2)
        report = run_bench(pts, algos=("brute",), k=3, task="classification", seed=1)
        (row,) = report.algorithms
        assert row.recall_at_k == 1.0
        assert 0.0 <= row.accuracy <= 1.0

    def test_guaranteed_ghn_matches_brute_row_for_row(self, rng):
        pts, _ = clustered(rng, 300, 3)
        report = run_bench(pts, algos=("ghn", "brute"), k=3, mode="guaranteed", task="classification", seed=2)
        ghn, brute = report.algorithms
        assert ghn.recall_at_k == 1.0
        assert ghn.accuracy == brute.accuracy

    def test_regression_reports_rmse(self, rng):
        X = rng.uniform(0, 10, (120, 2))
        from gridneighbors import points_from_arrays

        pts = points_from_arrays(X, X.sum(axis=1))
        report = run_bench(pts, algos=("brute",), k=3, task="regression", seed=0)
        (row,) = report.algorithms
        assert row.rmse is not None and row.rmse >= 0
        assert row.accuracy is None

    def test_accuracy_recomputable_from_predictions(self):
        # brute accuracy equals a hand recount over per-row predictions
        from gridneighbors import baselines, datasets, predict

        spec = _spec()
        data = datasets.load_csv(spec)
        train, test = datasets.split(data, 0.8, seed=0)
        scaler = datasets.fit_scaler(train, "standard")
        train_s = datasets.apply_scaler(scaler, train)
        test_s = datasets.apply_scaler(scaler, test)
        brute = baselines.brute_build(train_s, "euclidean")
        hits = sum(
            predict.classify(baselines.brute_knn(brute, p.coords, 3)).value == p.label
            for p in test_s
        )
        report = run_bench(spec, algos=("brute",), k=3, scaler_kind="standard", seed=0)
        assert report.algorithms[0].accuracy == pytest.approx(hits / len(test_s))

    def test_k_larger_than_train_rejected(self, rng):
        pts, _ = clustered(rng, 20, 2)
        with pytest.raises(ValueError):
            run_bench(pts, algos=("brute",), k=17, task="classification")

    def test_unknown_algo_rejected(self, rng):
        pts, _ = clustered(rng, 50, 2)
        with pytest.raises(ValueError):
            run_bench(pts, algos=("annoy",), k=3, task="classification")

    def test_ghn_row_carries_query_stats(self, rng):
        pts, _ = clustered(rng, 200, 2)
        report = run_bench(pts, algos=("ghn",), k=3, task="classification", seed=4)
        (row,) = report.algorithms
        assert row.mean_points_scanned > 0
        assert row.mean_layers_visited >= 0

    def test_ghn_queries_run_once_per_timed_pass(self, rng, monkeypatch):
        from gridneighbors import explore

        calls = []
        real = explore.knn_query
        monkeypatch.setattr(explore, "knn_query", lambda *a: calls.append(1) or real(*a))
        pts, _ = clustered(rng, 200, 2)
        report = run_bench(pts, algos=("ghn",), k=3, task="classification", seed=4, repeats=2)
        assert len(calls) == 2 * report.env["n_test"]


class TestCli:
    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "--dataset", DATA_CSV, "--label-col", "label", "--task", "cls",
            "--k", "3", "--algos", "ghn,brute", "--seed", "5",
            "--report", "json", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert {a["name"] for a in report["algorithms"]} == {"ghn", "brute"}

    def test_csv_and_md_reports(self, tmp_path):
        for fmt in ("csv", "md"):
            out = tmp_path / f"report.{fmt}"
            main([
                "--dataset", DATA_CSV, "--label-col", "label",
                "--algos", "brute", "--report", fmt, "--out", str(out),
            ])
            text = out.read_text()
            assert "recall_at_k" in text

    def test_determinism_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "--dataset", DATA_CSV, "--label-col", "label", "--task", "cls",
                "--k", "3", "--algos", "ghn,brute", "--seed", "9",
                "--report", "json", "--out", str(out),
            ])
            outs.append(strip_timing(json.loads(out.read_text())))
        assert outs[0] == outs[1]
