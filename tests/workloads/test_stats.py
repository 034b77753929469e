"""Workload statistics and the figure benchmarks' table helpers."""

import pytest

from repro.workloads import LatencyStats, Timeline, percentile

from benchmarks.harness import format_table, normalize


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0


def test_percentile_validation():
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)
    with pytest.raises(ValueError, match="0, 100"):
        percentile([1.0], 200)


def test_latency_stats():
    stats = LatencyStats()
    for v in (0.1, 0.2, 0.3):
        stats.add(v)
    assert len(stats) == 3
    assert stats.mean == pytest.approx(0.2)
    assert stats.p(99) == 0.3


def test_latency_stats_empty_mean():
    assert LatencyStats().mean == 0.0


def test_timeline_series_and_rate():
    timeline = Timeline()
    for t in (0.5, 0.6, 1.2, 3.9):
        timeline.add(t)
    series = dict(timeline.series())
    assert series[0.0] == 2 and series[1.0] == 1 and series[2.0] == 0 and series[3.0] == 1
    assert timeline.mean_rate(0, 4) == pytest.approx(1.0)


def test_timeline_mean_rate_validation():
    with pytest.raises(ValueError):
        Timeline().mean_rate(5, 5)


def test_normalize():
    assert normalize(2.0, 3.0) == 1.5
    with pytest.raises(ValueError):
        normalize(0, 1)


def test_format_table():
    text = format_table(
        ["size", "ratio"], [["4 KB", 0.93], ["256 KB", 0.82]], title="Fig. 4"
    )
    assert "Fig. 4" in text
    assert "0.930" in text and "256 KB" in text
    lines = text.splitlines()
    assert len(lines) == 5
