"""Walk through one grid-hashing query on a tiny 2-d dataset.

Builds a small index with unit cells, then narrates the layer-by-layer
exploration around a query: the central cell, the first layer that fills
the buffer, and the quiet layer that stops the search.
"""

import numpy as np

from gridneighbors import GridParams, build, cell_points, hash_cell, knn_query, points_from_arrays

X = np.array(
    [
        [5.4, 5.4],  # shares the query's cell
        [4.2, 5.5],
        [6.7, 5.5],
        [5.5, 6.9],
        [7.9, 7.9],
        [9.5, 9.5],
    ]
)
labels = ["A", "A", "B", "B", "B", "A"]
index = build(points_from_arrays(X, labels), params=GridParams([1.0, 1.0], [1, 1]))

print("training points and their cells:")
for i, x in enumerate(X):
    print(f"  point {i} {x} label={labels[i]} -> cell {hash_cell(x, index.params)}")

q = (5.5, 5.5)
center = hash_cell(q, index.params)
print(f"\nquery {q} hashes to central cell {center}")
print(f"central cell holds point indices {cell_points(index, center)}")

neighbors, stats = knn_query(index, q, k=3, mode="heuristic")
print(f"\nexploration stopped after layer {stats.layers_visited} "
      f"({stats.cells_visited} non-empty cells, {stats.points_scanned} points scanned)")
print("3 nearest neighbors:")
for n in neighbors:
    print(f"  index={n.point_index} label={n.label} distance={n.distance:.3f}")
