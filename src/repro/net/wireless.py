"""Wireless channel model for the paper's "other possibilities" example.

Section 2.3's closing paragraph notes that TPPs also apply to wireless
networks, where an access point can annotate packets with channel SNR that
"changes very quickly".  This module provides that rapidly changing state: a
bounded random-walk SNR process that can be attached to any port.  The ASIC
stats layer exposes it as ``[Link:SNR-MilliDb]``, so the same LOAD/PUSH
instructions that read queue sizes can sample the channel.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.sim.simulator import Simulator
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.port import Port


class WirelessChannel:
    """A bounded random-walk SNR process in milli-dB.

    SNR is stored in integer milli-dB because the TPP memory interface moves
    integer words; end-hosts divide by 1000.
    """

    def __init__(self, sim: Simulator, rng: random.Random,
                 mean_snr_db: float = 25.0, step_db: float = 1.5,
                 floor_db: float = 0.0, ceiling_db: float = 45.0,
                 update_interval_ns: int = 100_000) -> None:
        self.sim = sim
        self._rng = rng
        self._mean_milli_db = round(mean_snr_db * 1000)
        self._step_milli_db = round(step_db * 1000)
        self._floor_milli_db = round(floor_db * 1000)
        self._ceiling_milli_db = round(ceiling_db * 1000)
        self.current_snr_milli_db = self._mean_milli_db
        self.updates = 0
        self._timer = PeriodicTimer(sim, update_interval_ns, self._step)

    @property
    def current_snr_db(self) -> float:
        """Current SNR in dB (float view of the integer register)."""
        return self.current_snr_milli_db / 1000.0

    def start(self) -> None:
        """Begin evolving the channel."""
        self._timer.start()

    def _step(self) -> None:
        # Mean-reverting random walk: drift toward the mean plus noise.
        drift = (self._mean_milli_db - self.current_snr_milli_db) // 20
        noise = self._rng.randint(-self._step_milli_db, self._step_milli_db)
        value = self.current_snr_milli_db + drift + noise
        value = max(self._floor_milli_db, min(self._ceiling_milli_db, value))
        self.current_snr_milli_db = value
        self.updates += 1


def attach_wireless_channel(port: "Port",
                            channel: WirelessChannel) -> None:
    """Associate a channel with a port so the ASIC stats layer can read it."""
    port.wireless_channel = channel
