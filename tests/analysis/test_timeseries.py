"""TimeSeries container."""

import pytest

from repro.analysis.timeseries import TimeSeries


def series_of(pairs):
    series = TimeSeries("t")
    for time_ns, value in pairs:
        series.append(time_ns, value)
    return series


class TestAppend:
    def test_ordered_append(self):
        series = series_of([(1, 1.0), (2, 2.0)])
        assert series.samples() == [(1, 1.0), (2, 2.0)]

    def test_equal_times_allowed(self):
        series = series_of([(1, 1.0), (1, 2.0)])
        assert len(series) == 2

    def test_backwards_time_rejected(self):
        series = series_of([(5, 1.0)])
        with pytest.raises(ValueError):
            series.append(4, 2.0)


class TestQueries:
    def test_window_half_open(self):
        series = series_of([(0, 0.0), (10, 1.0), (20, 2.0), (30, 3.0)])
        window = series.window(10, 30)
        assert window.samples() == [(10, 1.0), (20, 2.0)]

    def test_stats(self):
        series = series_of([(0, 1.0), (1, 3.0), (2, 5.0)])
        assert series.mean() == 3.0
        assert series.max() == 5.0
        assert series.min() == 1.0

    def test_empty_stats(self):
        series = TimeSeries()
        assert series.mean() == 0.0


class TestTransforms:
    def test_resample_mean(self):
        series = series_of([(0, 1.0), (5, 3.0), (10, 10.0), (15, 20.0)])
        resampled = series.resample_mean(10)
        assert resampled.samples() == [(0, 2.0), (10, 15.0)]

    def test_resample_skips_empty_buckets(self):
        series = series_of([(0, 1.0), (35, 2.0)])
        resampled = series.resample_mean(10)
        assert resampled.samples() == [(0, 1.0), (30, 2.0)]

    def test_resample_bucket_validated(self):
        with pytest.raises(ValueError):
            series_of([(0, 1.0)]).resample_mean(0)

    def test_resample_empty(self):
        assert len(TimeSeries().resample_mean(10)) == 0
