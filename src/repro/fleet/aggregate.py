"""Endpoint aggregation: many logical flows, one admission decision.

The paper's control loops put a prober on every flow.  At fleet scale
(10^5–10^6 logical flows) per-flow admission would dominate the run: the
static verifier and the per-switch race table would re-derive the same
verdict for every flow carrying the same program.  This module amortizes
both:

- :class:`BatchedAdmission` keeps one verdict per
  :func:`~repro.core.verifier.admission_key` (program fingerprint +
  memory image + geometry).  The first flow pays for one
  :func:`~repro.core.verifier.verify_program` run; its certificate is
  pushed to every switch's TCPU (:meth:`~repro.core.tcpu.TCPU.trust`) —
  which admits it to each per-switch
  :class:`~repro.core.racecheck.FleetRaceTable` exactly once — and all
  later flows ride the cached verdict.
- :class:`FleetProbeController` is the PeriodicProber generalized across
  lanes: one timer fires every lane's probe at the same instant, so the
  probes reach their shared edge switch in one arrival instant and the
  switch's ingress drain executes them as a single TCPU batch (read
  probes: its packet-at-a-time safe lane).  Each physical probe stands for
  ``flows_per_probe`` logical flows — the aggregation that gets a region
  to fleet scale without fleet-sized event counts.
"""

from __future__ import annotations

import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.core.assembler import AssembledProgram
from repro.core.memory_map import MemoryMap
from repro.core.tcpu import DEFAULT_MAX_INSTRUCTIONS
from repro.core.verifier import (
    VerificationError,
    AdmissionKey,
    VerificationResult,
    admission_key,
    verify_program,
)
from repro.sim.timers import PeriodicTimer

#: One record per echoed probe: everything a logical flow's report
#: contains, reduced to hashable primitives for determinism digests.
FlowRecord = Tuple[int, int, int, int]  # (seq, fault, hops, memory crc32)


class BatchedAdmission:
    """One verifier verdict and one race-table admit per admission key.

    ``admit(program, flows=N)`` accounts N logical flows against a single
    cached decision.  Rejections raise
    :class:`~repro.core.verifier.VerificationError` for every flow in the
    batch — refusing 10^5 flows costs one analysis too.
    """

    COUNTERS = ("programs_verified", "certificates_installed",
                "flows_admitted", "flows_rejected", "verifications_saved")

    def __init__(self, switches: Iterable[Any],
                 memory_map: Optional[MemoryMap] = None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> None:
        self.switches = list(switches)
        self.memory_map = memory_map
        self.max_instructions = max_instructions
        self._verdicts: Dict[AdmissionKey, VerificationResult] = {}
        self.programs_verified = 0
        self.certificates_installed = 0
        self.flows_admitted = 0
        self.flows_rejected = 0

    def admit(self, program: AssembledProgram,
              flows: int = 1) -> VerificationResult:
        """Admit ``flows`` logical flows carrying ``program``.

        Returns the (cached) verification result; raises
        :class:`VerificationError` when the program is rejected.
        """
        key = admission_key(program)
        result = self._verdicts.get(key)
        if result is None:
            self.programs_verified += 1
            result = verify_program(program, memory_map=self.memory_map,
                                    max_instructions=self.max_instructions)
            self._verdicts[key] = result
            if result.ok and result.certificate is not None:
                # Distributed once per (program, switch): the
                # per-switch race tables see exactly one admit for the
                # whole flow population.
                for switch in self.switches:
                    tcpu = getattr(switch, "tcpu", None)
                    if tcpu is not None and tcpu.trust(result.certificate):
                        self.certificates_installed += 1
        if not result.ok:
            self.flows_rejected += flows
            raise VerificationError(result)
        self.flows_admitted += flows
        return result

    @property
    def verifications_saved(self) -> int:
        """Analyses per-flow admission would have run but this didn't."""
        return (self.flows_admitted + self.flows_rejected
                - self.programs_verified)


class FleetProbeController:
    """One timer driving every probe lane in a region.

    Lanes are ``(endpoint, dst_mac)`` pairs.  Each firing sends one probe
    per lane *in the same simulation instant*; lanes that share an edge
    switch therefore land in one arrival instant and execute as one TCPU
    batch.  Probe programs pass through the endpoint's hop budgeting
    (``TPPEndpoint.budget``) and this controller's
    :class:`BatchedAdmission` before the first send.

    Echo records accumulate per lane in arrival order as
    :data:`FlowRecord` tuples — the raw material for the fleet's
    determinism digests.
    """

    COUNTERS = ("bursts_fired", "probes_sent", "responses_received",
                "logical_flows")

    def __init__(self, sim: Any, lanes: Iterable[Tuple[Any, int]],
                 program: AssembledProgram,
                 interval_ns: int, admission: BatchedAdmission,
                 flows_per_probe: int = 1,
                 max_bursts: Optional[int] = None,
                 task_id: int = 0) -> None:
        if interval_ns < 1:
            raise ValueError(f"interval_ns must be >= 1: {interval_ns}")
        if flows_per_probe < 1:
            raise ValueError(
                f"flows_per_probe must be >= 1: {flows_per_probe}")
        self.sim = sim
        self.lanes = list(lanes)
        self.interval_ns = interval_ns
        self.admission = admission
        self.flows_per_probe = flows_per_probe
        self.max_bursts = max_bursts
        self.task_id = task_id
        #: Per-lane probe programs, hop-budgeted once up front (the
        #: budget call is memoized per endpoint, but resolving it here
        #: keeps _fire allocation-free).
        self._programs: List[AssembledProgram] = []
        for endpoint, _dst in self.lanes:
            sized = (endpoint.budget(program)
                     if hasattr(endpoint, "budget") else program)
            self._programs.append(sized)
        self.records: List[List[FlowRecord]] = [[] for _ in self.lanes]
        self._timer = PeriodicTimer(sim, interval_ns, self._fire)
        self.bursts_fired = 0
        self.probes_sent = 0
        self.responses_received = 0

    @property
    def logical_flows(self) -> int:
        """Logical flows this controller has driven so far."""
        return self.probes_sent * self.flows_per_probe

    def start(self, first_delay_ns: Optional[int] = None) -> None:
        """Begin probing (first burst after one interval by default)."""
        self._timer.start(self.interval_ns if first_delay_ns is None
                          else first_delay_ns)

    def stop(self) -> None:
        """Stop firing; in-flight probes may still come back."""
        self._timer.stop()

    def _fire(self) -> None:
        if (self.max_bursts is not None
                and self.bursts_fired >= self.max_bursts):
            self._timer.stop()
            return
        self.bursts_fired += 1
        for lane, (endpoint, dst_mac) in enumerate(self.lanes):
            program = self._programs[lane]
            self.admission.admit(program, flows=self.flows_per_probe)
            self.probes_sent += 1
            endpoint.send(program, dst_mac=dst_mac, task_id=self.task_id,
                          on_response=self._recorder(lane))

    def _recorder(self, lane: int) -> Callable[[Any], None]:
        records = self.records[lane]

        def record(view: Any) -> None:
            self.responses_received += 1
            records.append((view.seq, int(view.fault), view.hops(),
                            zlib.crc32(bytes(view.tpp.memory))))
        return record

    def flow_lines(self) -> List[str]:
        """Canonical per-flow report lines, lane-major then arrival
        order — the controller's contribution to the region digest."""
        lines: List[str] = []
        for lane, records in enumerate(self.records):
            for seq, fault, hops, crc in records:
                lines.append(f"lane{lane}:{seq}:{fault}:{hops}:{crc:08x}")
        return lines
