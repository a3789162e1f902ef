"""Seeded random-number streams for reproducible experiments.

Every stochastic component (workload arrival processes, wireless SNR walks,
jittered probe timers) draws from its own named stream so adding a new
random consumer does not perturb existing traces.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class SeededRNG:
    """A family of independent, deterministically seeded random streams.

    ``SeededRNG(42).stream("workload")`` always yields the same sequence,
    regardless of what other streams exist or in what order they are
    created.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            # Derive a per-stream seed from the master seed and the name.
            # hashlib (not built-in hash()) because str hashing is salted
            # per-process and would break run-to-run reproducibility.
            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            derived = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(derived)
        return self._streams[name]
