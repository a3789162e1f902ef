"""Discrete-event simulation engine.

This is the substrate on which the whole reproduction runs: an integer-
nanosecond clock, a binary-heap event queue with deterministic tie-breaking,
periodic timers, and a trace recorder.  It replaces the paper's Linux-router
testbed (see DESIGN.md, substitution table).

Public surface::

    sim = Simulator()
    sim.schedule(delay_ns, callback, arg1, arg2)
    timer = PeriodicTimer(sim, interval_ns, tick_fn)
    timer.start()
    sim.run(until_ns=units.seconds(30))
"""

from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.timers import OneShotTimer, PeriodicTimer
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceLevel, TraceRecorder, TraceRecord

__all__ = [
    "Event",
    "Simulator",
    "OneShotTimer",
    "PeriodicTimer",
    "SeededRNG",
    "TraceLevel",
    "TraceRecorder",
    "TraceRecord",
]
