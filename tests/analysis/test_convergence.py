"""Convergence and fairness metrics."""

import pytest

from repro.analysis.convergence import (
    convergence_time_ns,
    jain_fairness,
)
from repro.analysis.timeseries import TimeSeries


def series_of(pairs):
    series = TimeSeries()
    for t, v in pairs:
        series.append(t, v)
    return series


class TestConvergenceTime:
    def test_settles_and_stays(self):
        series = series_of([(0, 0.0), (10, 0.5), (20, 0.95), (30, 1.0),
                            (40, 1.02)])
        assert convergence_time_ns(series, target=1.0, tolerance=0.1) == 20

    def test_excursion_resets(self):
        series = series_of([(0, 1.0), (10, 5.0), (20, 1.0), (30, 1.0)])
        assert convergence_time_ns(series, target=1.0, tolerance=0.1) == 20

    def test_never_settles(self):
        series = series_of([(0, 0.0), (10, 5.0)])
        assert convergence_time_ns(series, target=1.0) is None

    def test_from_time_skips_history(self):
        series = series_of([(0, 1.0), (10, 1.0), (20, 1.0)])
        assert convergence_time_ns(series, target=1.0,
                                   from_time_ns=15) == 20

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            convergence_time_ns(series_of([(0, 1.0)]), target=0.0)


class TestFairness:
    def test_perfect_fairness(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_total_unfairness(self):
        assert jain_fairness([10.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_empty(self):
        assert jain_fairness([]) == 0.0

    def test_all_zero(self):
        assert jain_fairness([0.0, 0.0]) == 0.0

    def test_partial(self):
        # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
        assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(36 / 42)

