"""Deterministic MAC addresses.

Addresses are plain integers throughout the simulator (cheap to hash and
compare in table lookups).
"""

from __future__ import annotations


def host_mac(index: int) -> int:
    """Deterministic MAC for the ``index``-th host (02:... locally admin)."""
    return (0x02 << 40) | index


def switch_mac(index: int) -> int:
    """Deterministic MAC for the ``index``-th switch."""
    return (0x06 << 40) | index
