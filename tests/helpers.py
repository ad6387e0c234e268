"""Data makers and comparison helpers shared by the test modules.

A plain module rather than conftest.py, so that `from helpers import ...`
cannot pick up another directory's conftest when several test trees are
collected in one run.
"""

from gridneighbors import points_from_arrays


def clustered(rng, n, d, n_clusters=None, spread=None):
    """Gaussian clusters scattered over [0, 100]^d."""
    c = n_clusters or int(rng.integers(2, 6))
    spread = spread or float(rng.uniform(0.5, 3.0))
    centers = rng.uniform(0, 100, (c, d))
    X = centers[rng.integers(0, c, n)] + rng.normal(0, spread, (n, d))
    y = rng.integers(0, 4, n)
    return points_from_arrays(X, y), X


def uniform(rng, n, d):
    X = rng.uniform(-50, 50, (n, d))
    y = rng.integers(0, 4, n)
    return points_from_arrays(X, y), X


def as_pairs(neighbors):
    return [(n.distance, n.point_index) for n in neighbors]
