"""The benchmark's own statistics: AUC and the percentile rule."""

import itertools
import statistics

import numpy as np
import pytest

from cmsfbench.stats import MIN_P90_SAMPLES, p90, quartiles, rank_sum_auc, relative_spread


def brute_force_auc(labels, scores):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(5))
def test_auc_matches_pairwise_count_with_ties(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = (0, 1)
    scores = rng.integers(0, 8, size=60) / 8.0  # many ties
    assert rank_sum_auc(labels, scores) == pytest.approx(brute_force_auc(labels, scores))


def test_auc_extremes_and_single_class():
    assert rank_sum_auc([0, 0, 1, 1], [0.1, 0.2, 0.3, 0.4]) == 1.0
    assert rank_sum_auc([1, 1, 0, 0], [0.1, 0.2, 0.3, 0.4]) == 0.0
    assert rank_sum_auc([0, 1, 0, 1], [0.5] * 4) == 0.5
    with pytest.raises(ValueError):
        rank_sum_auc([1, 1], [0.2, 0.3])


def test_p90_needs_a_hundred_samples():
    assert MIN_P90_SAMPLES == 100
    assert p90(list(range(99))) is None
    values = list(range(100))
    assert p90(values) == statistics.quantiles(values, n=10)[8]
    # ten samples lie beyond it: the slowest op is never the metric
    assert sum(v > p90(values) for v in values) == 10
    assert p90(values) < max(values)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 30.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
