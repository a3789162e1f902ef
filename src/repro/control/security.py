"""Edge security policy for TPPs (paper §4).

"In multi-tenant or untrusted environments such as public cloud
datacenters, the ingress switches at the network edge (the virtual switch,
or the border routers) can strip TPPs injected by VMs, or those TPPs
received from the Internet."

A policy is attached to a switch (``switch.tpp_policy = policy``) and
consulted once per TPP arrival; it answers one of:

- ``"execute"`` — trusted source, run the TPP on the TCPU;
- ``"forward"`` — carry the TPP but do not execute it here;
- ``"strip"``   — remove the TPP section, forward the encapsulated packet;
- ``"drop"``    — discard the whole packet.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Set, Tuple

from repro.core.memory_map import MemoryMap
from repro.core.racecheck import FleetRaceTable
from repro.core.tcpu import DEFAULT_MAX_INSTRUCTIONS, RACE_MODES
from repro.core.tpp import TPPSection
from repro.core.verifier import AdmissionKey, admission_key, verify_section

VALID_ACTIONS = ("execute", "forward", "strip", "drop")

#: Bound on :class:`VerifierPolicy`'s verdict memo (LRU).
_VERDICT_CACHE_SIZE = 256


class EdgeTPPPolicy:
    """Port-granular trust: untrusted ingress ports get their TPPs
    stripped (default) or dropped."""

    #: What may happen to a TPP from an untrusted port.
    UNTRUSTED_ACTIONS: Tuple[str, ...] = ("strip", "drop")

    def __init__(self, untrusted_action: str = "strip") -> None:
        if untrusted_action not in self.UNTRUSTED_ACTIONS:
            raise ValueError(
                f"untrusted_action must be one of "
                f"{self.UNTRUSTED_ACTIONS}, got {untrusted_action!r}")
        self.untrusted_action = untrusted_action
        self._untrusted: Set[Tuple[str, int]] = set()

    def mark_untrusted(self, switch_name: str, port_index: int) -> None:
        """Declare an edge port untrusted (e.g. it faces a tenant VM)."""
        self._untrusted.add((switch_name, port_index))

    def mark_trusted(self, switch_name: str, port_index: int) -> None:
        """Re-trust a port (no-op if it was never untrusted)."""
        self._untrusted.discard((switch_name, port_index))

    def is_untrusted(self, switch_name: str, port_index: int) -> bool:
        """Whether a port is currently untrusted."""
        return (switch_name, port_index) in self._untrusted

    def action_for(self, switch, in_port: int, tpp: TPPSection) -> str:
        """Policy decision for one TPP arrival (called by the switch)."""
        if (switch.name, in_port) in self._untrusted:
            return self.untrusted_action
        return "execute"


class VerifierPolicy(EdgeTPPPolicy):
    """Static verification at untrusted edge ports.

    :class:`EdgeTPPPolicy`'s ports, stricter: instead of refusing
    *all* TPPs from an untrusted port, it runs each arriving program
    through the static verifier (:mod:`repro.core.verifier`) and only
    lets provably-safe ones execute — unverifiable TPPs are stripped
    (default) or dropped.  Verdicts are memoized by
    :func:`~repro.core.verifier.admission_key` (program, task, memory
    image, geometry), so a probe stream pays for one analysis and two
    rebinds of one template get a verdict each.

    An admitted program's certificate is pushed to the switch's TCPU (:meth:`repro.core.tcpu.TCPU.trust`),
    so edge admission makes every downstream execution of the same
    program on that switch race-checked and batch-eligible.

    Beyond the single-program verdict, the policy keeps a fleet-level
    race table (:class:`~repro.core.racecheck.FleetRaceTable`) over every
    admitted certificate: each admission is incrementally checked against
    the programs already in the fleet for SRAM races
    (``TPP020``–``TPP023``).  ``race_mode="warn"`` (default) admits racy
    programs but counts them in ``tpps_racy`` and keeps the conflicts in
    ``fleet.diagnostics()``;
    ``"enforce"`` applies ``untrusted_action`` to arrivals whose program
    races with an admitted one; ``"off"`` skips the fleet pass.  A racy
    program becomes admissible again once its rival is retired with
    :meth:`revoke` — the re-analysis runs per arrival.
    """

    COUNTERS = ("tpps_verified", "tpps_admitted", "tpps_rejected",
                "tpps_racy")
    UNTRUSTED_ACTIONS = ("strip", "drop", "forward")

    def __init__(self, untrusted_action: str = "strip",
                 memory_map: Optional[MemoryMap] = None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 race_mode: str = "warn") -> None:
        super().__init__(untrusted_action)
        if race_mode not in RACE_MODES:
            raise ValueError(
                f"race_mode must be one of {RACE_MODES}, "
                f"got {race_mode!r}")
        self.memory_map = memory_map
        self.max_instructions = max_instructions
        self.race_mode = race_mode
        self._verdicts: "OrderedDict[AdmissionKey, object]" = OrderedDict()
        self.tpps_verified = 0
        self.tpps_admitted = 0
        self.tpps_rejected = 0
        #: Arrivals whose program participated in an error-severity race
        #: at decision time (counted per arrival, like the others).
        self.tpps_racy = 0
        #: Fleet race table over admitted certificates.
        self.fleet = FleetRaceTable()

    def action_for(self, switch, in_port: int, tpp: TPPSection) -> str:
        """Policy decision for one TPP arrival (called by the switch)."""
        if (switch.name, in_port) not in self._untrusted:
            return "execute"
        result = self._verdict(tpp)
        if not result.ok:
            self.tpps_rejected += 1
            return self.untrusted_action
        certificate = result.certificate
        if certificate is not None and self.race_mode != "off":
            # Re-evaluated per arrival (admit is idempotent for a fleet
            # member), so a previously-racy program is re-admitted the
            # moment its rival has been revoked.
            diagnostics = self.fleet.admit(certificate.summary)
            if any(d.severity == "error" for d in diagnostics):
                self.tpps_racy += 1
                if self.race_mode == "enforce":
                    self.fleet.revoke(certificate)
                    self.tpps_rejected += 1
                    return self.untrusted_action
        self.tpps_admitted += 1
        # Pushed per arrival, not per verdict: one shared policy can
        # guard several switches, and TCPU.trust is idempotent for a
        # certificate it already holds.
        if certificate is not None:
            switch.tcpu.trust(certificate)
        return "execute"

    def revoke(self, certificate, switch=None) -> bool:
        """Retire an admitted program from the fleet race table.

        Optionally also distrusts it on a switch's TCPU.  Takes the
        admitted image's certificate (``verify_section`` of a section
        yields an equivalent one).  Returns whether a member retired.
        """
        removed = self.fleet.revoke(certificate)
        if switch is not None and getattr(switch, "tcpu", None) is not None:
            switch.tcpu.distrust(certificate)
        return removed

    def _verdict(self, tpp: TPPSection):
        key = admission_key(tpp)
        cached = self._verdicts.get(key)
        if cached is not None:
            self._verdicts.move_to_end(key)
            return cached
        self.tpps_verified += 1
        result = verify_section(
            tpp, memory_map=self.memory_map,
            max_instructions=self.max_instructions)
        self._verdicts[key] = result
        while len(self._verdicts) > _VERDICT_CACHE_SIZE:
            self._verdicts.popitem(last=False)
        return result
