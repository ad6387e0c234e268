"""Seeded benchmark of the gridneighbors library; run perfbench/run.py."""
