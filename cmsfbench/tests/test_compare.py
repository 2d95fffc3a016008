"""Verdicts of the compare tool on synthetic paired runs."""

import numpy as np
import pytest

from cmsfbench.compare import verdict


def noisy(center, spread, n=10, seed=0):
    rng = np.random.default_rng(seed)
    return list(center * (1 + spread * rng.uniform(-1, 1, size=n)))


def test_clear_gain_is_better_and_claimable():
    base = noisy(100.0, 0.02)
    change = noisy(70.0, 0.02, seed=1)
    v = verdict(base, change, "lower", 0.1)
    assert v["verdict"] == "better" and v["wins"] == 10 and v["gain_claimable"]
    assert v["beyond_bound"] and v["beyond_spread"]


def test_regression_beyond_bound_and_spread_is_worse():
    base = noisy(10.0, 0.02)
    change = noisy(8.0, 0.02, seed=2)  # throughput fell 20%
    v = verdict(base, change, "higher", 0.1)
    assert v["verdict"] == "worse" and v["losses"] == 10 and not v["gain_claimable"]


def test_difference_inside_the_bound_is_same():
    base = noisy(100.0, 0.01)
    change = noisy(95.0, 0.01, seed=3)
    v = verdict(base, change, "lower", 0.1)
    assert v["beyond_spread"] and not v["beyond_bound"]
    assert v["verdict"] == "same"


def test_difference_inside_the_base_spread_is_same():
    base = [60.0, 80.0, 100.0, 120.0, 140.0, 60.0, 80.0, 100.0, 120.0, 140.0]
    change = [x * 0.8 for x in base]
    v = verdict(base, change, "lower", 0.1)
    assert v["beyond_bound"] and not v["beyond_spread"]
    assert v["verdict"] == "same" and v["wins"] == 10


def test_a_better_median_with_too_few_wins_is_not_claimable():
    base = [100.0] * 10
    change = [50.0] * 8 + [150.0] * 2
    v = verdict(base, change, "lower", 0.1)
    assert v["verdict"] == "better" and v["wins"] == 8
    assert not v["gain_claimable"]


def test_ties_count_for_neither_side_and_no_bound_uses_spread_only():
    v = verdict([5.0] * 4, [5.0] * 4, "lower", None)
    assert (v["wins"], v["losses"], v["verdict"]) == (0, 0, "same")
    v = verdict([5.0, 5.1, 4.9, 5.0], [2.0, 2.1, 1.9, 2.0], "lower", None)
    assert v["verdict"] == "better"


def test_rejects_unpaired_runs_and_unknown_direction():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.1)
