"""Analysis utilities for the benchmark harness.

Time series, convergence metrics (how fast RCP* reaches fair share),
fairness indices, and plain-text table/plot rendering for the experiment
reports.
"""

from repro.analysis.timeseries import TimeSeries
from repro.analysis.convergence import (
    convergence_time_ns,
    jain_fairness,
    steady_state_mean,
)
from repro.analysis.reporting import (
    ascii_plot,
    counters_table,
    format_table,
)
from repro.analysis.sketch import (
    CountMinDecoder,
    DistinctCountDecoder,
    Estimate,
    HeavyHitter,
    HeavyHitterDecoder,
    image_from_mmu,
)

__all__ = [
    "TimeSeries",
    "convergence_time_ns",
    "jain_fairness",
    "steady_state_mean",
    "ascii_plot",
    "counters_table",
    "format_table",
    "CountMinDecoder",
    "DistinctCountDecoder",
    "Estimate",
    "HeavyHitter",
    "HeavyHitterDecoder",
    "image_from_mmu",
]
