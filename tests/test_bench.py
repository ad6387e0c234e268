import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import clustered
from gridneighbors import DatasetSpec, run_bench
from gridneighbors.bench import main, strip_timing

ROOT = Path(__file__).resolve().parents[1]
DATA_CSV = str(ROOT / "data" / "clusters.csv")


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
    def test_module_command_runs_without_a_warning(self, tmp_path):
        # The `python3 -m gridneighbors.bench` form README gives, any warning an error.
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gridneighbors.bench",
             "--dataset", DATA_CSV, "--label-col", "label", "--k", "3"],
            capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert {a["name"] for a in json.loads(run.stdout)["algorithms"]} == {"ghn", "brute", "kdtree"}

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


    @pytest.mark.parametrize(
        "args, message",
        [
            (["--split", "1.5"], "fraction must be in (0, 1)"),
            (["--k", "0"], "k=0 out of range"),
            (["--dataset", "no/such/file.csv"], "No such file or directory"),
        ],
    )
    def test_bad_input_is_one_error_line(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            main(["--dataset", DATA_CSV, "--label-col", "label", "--algos", "brute", *args])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("bench: error: ") and message in err[-1]
        assert not any("Traceback" in line for line in err)


    def test_missing_out_directory_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        from gridneighbors import bench

        calls = []
        monkeypatch.setattr(bench, "run_bench", lambda *a, **kw: calls.append(1))
        out = tmp_path / "no_such_dir" / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["--dataset", DATA_CSV, "--label-col", "label", "--out", str(out)])
        assert exc.value.code == 2 and calls == []
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("bench: error:")] == [
            f"bench: error: {out}: no such output directory"
        ]
        assert not any("Traceback" in line for line in err)

    def test_failed_report_write_is_one_error_line(self, tmp_path, capsys):
        # The directory exists but the path is a directory, so open() fails after the run.
        with pytest.raises(SystemExit) as exc:
            main(["--dataset", DATA_CSV, "--label-col", "label", "--algos", "brute", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("bench: error: ") and str(tmp_path) in err[-1]
        assert not any("Traceback" in line for line in err)


class TestReportText:
    """Exact CSV and markdown text of a hand-built two-row report."""

    def _report(self):
        from gridneighbors.bench import AlgoResult, BenchReport

        return BenchReport(
            env={"seed": 0, "k": 3, "mode": "heuristic"},
            algorithms=[
                AlgoResult("ghn", 1.5, 20.25, 0.125, 0.9876543, accuracy=0.95, mean_layers_visited=1.25,
                           mean_cells_visited=9.5, mean_points_scanned=123.456789),
                AlgoResult("brute", 0.0, 40.0, 0.25, 1.0, accuracy=0.96),
            ],
        )

    def test_csv(self):
        assert self._report().to_csv() == (
            "name,build_ms,total_predict_ms,mean_query_ms,recall_at_k,accuracy,"
            "mean_layers_visited,mean_cells_visited,mean_points_scanned\n"
            "ghn,1.5,20.25,0.125,0.987654,0.95,1.25,9.5,123.457\n"
            "brute,0,40,0.25,1,0.96,,,\n"
        )

    def test_markdown(self):
        assert self._report().to_markdown() == (
            "<!-- schema_version=1; k=3, mode=heuristic, seed=0 -->\n"
            "| name  | build_ms | total_predict_ms | mean_query_ms | recall_at_k | accuracy "
            "| mean_layers_visited | mean_cells_visited | mean_points_scanned |\n"
            "| ----- | -------- | ---------------- | ------------- | ----------- | -------- "
            "| ------------------- | ------------------ | ------------------- |\n"
            "| ghn   | 1.5      | 20.25            | 0.125         | 0.987654    | 0.95     "
            "| 1.25                | 9.5                | 123.457             |\n"
            "| brute | 0        | 40               | 0.25          | 1           | 0.96     "
            "|                     |                    |                     |\n"
        )

    def test_to_dict_drops_unset_fields_in_field_order(self):
        brute = self._report().algorithms[1].to_dict()
        assert list(brute) == ["name", "build_ms", "total_predict_ms", "mean_query_ms", "recall_at_k", "accuracy"]
