"""Property tests: TimeSeries transforms preserve basic invariants."""

from hypothesis import given, strategies as st

from repro.analysis.convergence import jain_fairness
from repro.analysis.timeseries import TimeSeries

sample_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**9),
              st.floats(min_value=-1e9, max_value=1e9,
                        allow_nan=False, allow_infinity=False)),
    max_size=50,
).map(lambda pairs: sorted(pairs, key=lambda p: p[0]))


def series_of(pairs):
    series = TimeSeries()
    for t, v in pairs:
        series.append(t, v)
    return series


class TestSeriesProperties:
    @given(sample_lists)
    def test_window_subset(self, pairs):
        series = series_of(pairs)
        if not pairs:
            return
        lo = pairs[0][0]
        hi = pairs[-1][0] + 1
        window = series.window(lo, hi)
        assert len(window) == len(series)

    @given(sample_lists)
    def test_mean_bounded_by_extremes(self, pairs):
        series = series_of(pairs)
        if len(series) == 0:
            return
        assert series.min() - 1e-6 <= series.mean() <= series.max() + 1e-6

    @given(sample_lists, st.integers(min_value=1, max_value=10**8))
    def test_resample_never_adds_samples(self, pairs, bucket):
        series = series_of(pairs)
        assert len(series.resample_mean(bucket)) <= max(1, len(series))


class TestFairnessProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=20))
    def test_index_in_unit_interval(self, allocations):
        index = jain_fairness(allocations)
        assert 0.0 <= index <= 1.0 + 1e-9

    def test_subnormal_allocations_stay_in_unit_interval(self):
        """Squares of tiny shares underflow into subnormals; the
        normalized form must still keep the index at exactly 1.0 for
        equal shares instead of drifting past it."""
        tiny = 6.465776397029825e-161
        assert jain_fairness([tiny, tiny]) == 1.0

    @given(st.floats(min_value=0.001, max_value=1e6),
           st.integers(min_value=1, max_value=20))
    def test_equal_allocations_perfect(self, value, n):
        assert jain_fairness([value] * n) > 0.999999
