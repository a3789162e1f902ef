"""Analysis utilities for the benchmark harness.

Time series, convergence metrics (how fast RCP* reaches fair share),
fairness indices, and plain-text table/plot rendering for the experiment
reports.
"""
