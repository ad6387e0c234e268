"""Turn a neighbor list into a prediction: majority vote or mean/median."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Neighbor


@dataclass(frozen=True)
class Prediction:
    value: object
    confidence: float | None = None


def classify(neighbors: Sequence[Neighbor]) -> Prediction:
    """Majority vote over neighbor labels.

    Ties go to the label whose nearest member (smallest
    (distance, point_index)) comes first. Confidence is the winning
    label's share of the votes.
    """
    if not neighbors:
        raise ValueError("cannot classify from an empty neighbor list")
    counts: dict = {}  # a dict loop costs less than building a Counter for k labels
    for n in neighbors:
        counts[n.label] = counts.get(n.label, 0) + 1
    top = max(counts.values())
    tied = {label for label, c in counts.items() if c == top}
    if len(tied) == 1:
        (value,) = tied
    else:
        value = min((n for n in neighbors if n.label in tied), key=lambda n: n.key).label
    return Prediction(value=value, confidence=counts[value] / len(neighbors))


def regress(neighbors: Sequence[Neighbor], agg: str = "mean") -> Prediction:
    """Mean or median of neighbor targets; even-count median is the midpoint."""
    if not neighbors:
        raise ValueError("cannot regress from an empty neighbor list")
    targets = np.asarray([float(n.label) for n in neighbors])
    if agg == "mean":
        value = float(targets.mean())
    elif agg == "median":
        value = float(np.median(targets))
    else:
        raise ValueError(f"unknown aggregation {agg!r}; expected 'mean' or 'median'")
    return Prediction(value=value, confidence=None)
