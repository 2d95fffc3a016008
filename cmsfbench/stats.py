"""Small statistics the benchmark reports with: percentiles, spreads, AUC.

Everything here is pure Python/numpy over plain sequences so the
benchmark's own tests can check it against brute force.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

import numpy as np

#: a p90 needs this many samples, so that ten of them lie beyond it
MIN_P90_SAMPLES = 100


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> Optional[float]:
    """The 90th percentile, or None below :data:`MIN_P90_SAMPLES` samples.

    Uses the same ``statistics.quantiles`` method the spread check uses;
    the slowest sample is never the answer at 100+ samples.
    """
    if len(values) < MIN_P90_SAMPLES:
        return None
    return float(statistics.quantiles(values, n=10)[8])


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def rank_sum_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """ROC AUC by the Mann-Whitney rank sum, ties sharing their mean rank.

    Independent of ``repro.eval`` and ``repro.nn.training`` on purpose:
    the training check must not trust the code it checks.
    """
    labels = np.asarray(labels).astype(int)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    start = 0
    while start < scores.size:
        stop = start
        while stop + 1 < scores.size and sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[order[start:stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, object]:
    """Median, p90 (when it has enough samples) and the sample count."""
    return {"n": len(samples_ms),
            "p50_ms": median(samples_ms) if samples_ms else None,
            "p90_ms": p90(samples_ms)}
