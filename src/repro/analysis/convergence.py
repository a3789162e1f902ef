"""Convergence and fairness metrics for the congestion-control benches."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.timeseries import TimeSeries


def convergence_time_ns(series: TimeSeries, target: float,
                        tolerance: float = 0.1,
                        from_time_ns: int = 0) -> Optional[int]:
    """First time the series enters and *stays* within ±tolerance·target.

    Returns ``None`` if the series never settles.  This is the metric used
    to compare RCP and RCP* convergence after each flow arrival (Figure 2).
    """
    if target == 0:
        raise ValueError("target must be nonzero")
    band = abs(tolerance * target)
    entered: Optional[int] = None
    for time_ns, value in series.samples():
        if time_ns < from_time_ns:
            continue
        if abs(value - target) <= band:
            if entered is None:
                entered = time_ns
        else:
            entered = None
    return entered


def jain_fairness(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 means perfectly equal shares."""
    if not allocations:
        return 0.0
    # The index is scale-invariant; normalizing by the peak magnitude
    # keeps tiny shares out of the subnormal range, where the squared
    # terms lose enough precision to push the ratio past 1.
    scale = max(abs(value) for value in allocations)
    if scale == 0:
        return 0.0
    scaled = [value / scale for value in allocations]
    total = sum(scaled)
    squares = sum(value * value for value in scaled)
    if squares == 0:
        return 0.0
    return (total * total) / (len(allocations) * squares)

