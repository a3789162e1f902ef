"""A minimal time-series container tuned for simulation output."""

from __future__ import annotations

import bisect
from typing import List, Tuple


class TimeSeries:
    """Append-only (time_ns, value) samples with window queries.

    Times must be appended in non-decreasing order (simulation time only
    moves forward), which keeps every query a binary search.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[int] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time_ns: int, value: float) -> None:
        """Add one sample (time must not go backwards)."""
        if self._times and time_ns < self._times[-1]:
            raise ValueError(
                f"time went backwards: {time_ns} < {self._times[-1]}")
        self._times.append(time_ns)
        self._values.append(float(value))

    def samples(self) -> List[Tuple[int, float]]:
        """All (time, value) pairs."""
        return list(zip(self._times, self._values))

    def window(self, start_ns: int, end_ns: int) -> "TimeSeries":
        """Samples with ``start_ns <= t < end_ns``."""
        lo = bisect.bisect_left(self._times, start_ns)
        hi = bisect.bisect_left(self._times, end_ns)
        result = TimeSeries(self.name)
        result._times = self._times[lo:hi]
        result._values = self._values[lo:hi]
        return result

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 when empty)."""
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def max(self) -> float:
        """Largest value (0.0 when empty)."""
        return max(self._values) if self._values else 0.0

    def min(self) -> float:
        """Smallest value (0.0 when empty)."""
        return min(self._values) if self._values else 0.0

    def percentile(self, fraction: float) -> float:
        """Value at a quantile in [0, 1] (nearest-rank; 0.0 when empty).

        Latency reporting wants p50/p99; nearest-rank keeps the result an
        actually-observed value.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[rank]

    def resample_mean(self, bucket_ns: int) -> "TimeSeries":
        """Mean per fixed-width time bucket (bucket timestamped at its
        start); empty buckets are skipped."""
        if bucket_ns <= 0:
            raise ValueError(f"bucket must be positive: {bucket_ns}")
        result = TimeSeries(f"{self.name}.resampled")
        if not self._times:
            return result
        bucket_start = (self._times[0] // bucket_ns) * bucket_ns
        total = 0.0
        count = 0
        for time_ns, value in zip(self._times, self._values):
            if time_ns >= bucket_start + bucket_ns:
                if count:
                    result.append(bucket_start, total / count)
                # Jump straight to the sample's bucket (gaps between
                # samples may span millions of empty buckets).
                bucket_start = (time_ns // bucket_ns) * bucket_ns
                total, count = 0.0, 0
            total += value
            count += 1
        if count:
            result.append(bucket_start, total / count)
        return result
