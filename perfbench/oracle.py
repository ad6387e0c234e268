"""Exact k-NN oracle and the per-answer correctness check.

The oracle reproduces brute_knn's (distance, index) order with the same
core ordering keys, at about a sixth of its cost: a partition finds each
query's k-th key and only the survivors at or below it are lexsorted,
where brute_knn lexsorts all n keys. It runs outside every timed region.
"""

from __future__ import annotations

import numpy as np

from gridneighbors.core import keys_to_distances, ordering_keys

METRIC = "euclidean"  # every workload builds a Euclidean index


def exact_knn(coords: np.ndarray, queries: np.ndarray, k: int):
    """(indices, distances), each (len(queries), k), in brute_knn's order."""
    out_idx = np.empty((len(queries), k), dtype=np.int64)
    out_keys = np.empty((len(queries), k))
    for r, q in enumerate(queries):
        keys = ordering_keys(q, coords, METRIC)
        kth = np.partition(keys, k - 1)[k - 1]
        cand = np.flatnonzero(keys <= kth)
        top = cand[np.lexsort((cand, keys[cand]))[:k]]
        out_idx[r] = top
        out_keys[r] = keys[top]
    return out_idx, keys_to_distances(out_keys, METRIC)


def check_answer(neighbors, q, k, coords, exact_idx, exact_dist, guaranteed):
    """Why an answer is wrong, or None when it passes.

    An answer must hold k distinct indices sorted by (distance, index),
    with each distance equal to the exact distance of that point. In
    guaranteed mode it must also equal the oracle's answer exactly.
    """
    if len(neighbors) != k:
        return f"returned {len(neighbors)} neighbours, expected {k}"
    idx = np.array([nb.point_index for nb in neighbors], dtype=np.int64)
    dist = np.array([nb.distance for nb in neighbors], dtype=float)
    if len(set(idx.tolist())) != k:
        return "duplicate indices"
    if idx.min() < 0 or idx.max() >= len(coords):
        return "index out of range"
    pairs = list(zip(dist.tolist(), idx.tolist()))
    if any(a >= b for a, b in zip(pairs, pairs[1:])):
        return "not sorted by (distance, index)"
    true = keys_to_distances(ordering_keys(q, coords[idx], METRIC), METRIC)
    if not np.array_equal(dist, true):
        return "distances differ from the exact ones"
    if guaranteed and not (np.array_equal(idx, exact_idx) and np.array_equal(dist, exact_dist)):
        return "guaranteed answer differs from the oracle"
    return None


def recall(neighbors, exact_idx) -> float:
    return len({nb.point_index for nb in neighbors} & set(exact_idx.tolist())) / len(exact_idx)
