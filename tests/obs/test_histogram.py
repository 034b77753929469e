"""Bucketed histogram percentiles against the exact nearest-rank rule
of :func:`repro.workloads.stats.percentile`: never below it, at most a
factor ``1 + 1/S`` above it, whatever the observation order."""

from __future__ import annotations

from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import S, Histogram
from repro.workloads.stats import percentile

PERCENTILES = (0, 1, 50, 90, 99, 99.9, 100)


def _hist(values) -> Histogram:
    hist = Histogram("lat", "")
    for value in values:
        hist.observe(value)
    return hist


def test_nearest_rank_is_the_stats_rule():
    """1..100: the exact p99 is 99 and p50 is 50 (rank ceil(p/100*n)),
    not the max and 51."""
    hist = _hist(float(v) for v in range(1, 101))
    assert 99.0 <= hist.percentile(99) <= 99.0 * (1 + 1 / S)
    assert hist.percentile(99) < 100.0
    assert 50.0 <= hist.percentile(50) <= 50.0 * (1 + 1 / S)
    assert hist.percentile(100) == 100.0


def test_equal_samples_are_exact():
    hist = _hist([5e-05] * 38)
    assert [hist.percentile(p) for p in PERCENTILES] == [5e-05] * len(PERCENTILES)


def test_zero_ranks_below_every_positive_value():
    hist = _hist([5e-324, 0.0, 1e-300, 0.0])
    assert hist.percentile(50) == 0.0
    assert hist.percentile(75) == 5e-324
    assert hist.percentile(100) == 1e-300
    assert hist.count == 4 and hist.min == 0.0


@pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
def test_negative_and_non_finite_values_are_refused(bad):
    hist = Histogram("lat", "")
    with pytest.raises((ValueError, OverflowError)):
        hist.observe(bad)
    assert hist.count == 0 and hist.buckets == {}


positive = st.floats(min_value=1e-9, max_value=1e4, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(positive, min_size=1, max_size=200), st.randoms(use_true_random=False))
def test_bucketed_percentile_bounds_the_exact_one(xs, rnd):
    hist = _hist(xs)
    for p in PERCENTILES:
        exact = percentile(xs, p)
        assert exact <= hist.percentile(p) <= exact * (1 + 1 / S)
    assert hist.percentile(100) == hist.max
    assert hist.count == len(xs)
    assert hist.total == reduce(add, xs, 0.0)  # summed in arrival order
    assert (hist.min, hist.max) == (min(xs), max(xs))

    shuffled = list(xs)
    rnd.shuffle(shuffled)
    again = _hist(shuffled)
    assert [again.percentile(p) for p in PERCENTILES] == [hist.percentile(p) for p in PERCENTILES]
