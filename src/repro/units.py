"""Unit conversions used throughout the simulator.

The simulated clock is an **integer number of nanoseconds**.  Floating-point
time is a classic source of event-ordering bugs in network simulators (two
events that should be simultaneous land a few ULPs apart), so every duration
in the event engine, links, and queues is an ``int`` of nanoseconds, and
every rate is bits per second.  These helpers convert at the boundary.
"""

from __future__ import annotations

# One second, millisecond, microsecond expressed in the simulator clock unit.
NANOSECONDS = 1
MICROSECONDS = 1_000
MILLISECONDS = 1_000_000
SECONDS = 1_000_000_000

# Common data rates in bits per second.
KILOBITS_PER_SEC = 1_000
MEGABITS_PER_SEC = 1_000_000
GIGABITS_PER_SEC = 1_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds (rounded to nearest)."""
    return round(value * SECONDS)


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded to nearest)."""
    return round(value * MILLISECONDS)


def microseconds(value: float) -> int:
    """Convert microseconds to integer nanoseconds (rounded to nearest)."""
    return round(value * MICROSECONDS)


def transmission_time_ns(size_bytes: int, rate_bps: int) -> int:
    """Time to serialize ``size_bytes`` onto a link of ``rate_bps``.

    Rounded up so a packet never finishes transmitting early; at 10 Gb/s a
    64-byte frame takes ceil(512 / 10) = 52 ns.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps}")
    bits = size_bytes * 8
    return -(-bits * SECONDS // rate_bps)  # ceiling division
