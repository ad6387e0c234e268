"""In-memory spans around the calls the benchmark makes into each layer.

A span is (name, start, end, parent, query id). Spans are appended to a
list while the run goes and written out once it ends. Untraced runs call
the library functions directly, so tracing costs nothing when it is off.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import gridneighbors

# The public functions the benchmark calls, by the module (layer) they live in.
LAYERS = {
    "core": ("points_from_arrays",),
    "datasets": ("load_csv", "split", "fit_scaler", "apply_scaler"),
    "grid": ("fit_cell_measurements", "build", "save_index", "load_index"),
    "explore": ("knn_query",),
    "predict": ("classify",),
    "baselines": ("brute_build", "brute_knn", "kdtree_build", "kdtree_knn"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, qid]
        self._open: list[int] = []

    def begin(self, name: str, qid=None) -> int:
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, qid])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path, meta: dict) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}))


def layer_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library's public functions, wrapped in spans when a tracer is given."""
    fns = {"DatasetSpec": gridneighbors.DatasetSpec}
    for layer, names in LAYERS.items():
        for name in names:
            fn = getattr(gridneighbors, name)
            fns[name] = fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn)
    return SimpleNamespace(**fns)
