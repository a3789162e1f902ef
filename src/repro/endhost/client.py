"""TPP send/receive plumbing for one host.

One :class:`TPPEndpoint` is attached per host (it claims the TPP ethertype
handler).  It plays both roles of the paper's end-host protocol:

- **sender**: :meth:`send` instantiates a program into a fresh TPP section,
  stamps a sequence number, and records a callback; when the fully-executed
  TPP is echoed back, the callback receives a :class:`TPPResultView`.
- **receiver**: a TPP that arrives *not yet done* has finished executing on
  every hop of the forward path.  "The receiver simply echos a fully
  executed TPP back to the sender" (§2.2) — the endpoint marks it done (so
  switches on the reverse path skip it) and sends it back.  TPPs that
  encapsulate a data payload are instead delivered locally: their payload
  goes to the host's normal UDP dispatch and the TPP itself is offered to
  registered taps (how the ndb collector sees its per-packet traces).

Reliability
-----------

The paper assumes probes come back; lossy networks do not oblige, and the
SIGCOMM'14 follow-up makes end-host agents responsible for retransmitting
lost TPPs.  The endpoint therefore keeps one :class:`ProbeRequest` record
per outstanding probe:

- sequence numbers are allocated **collision-free** from the 8-bit wire
  space — a seq whose slot is still pending is skipped, so a late echo can
  never fire a newer probe's callback with the wrong data;
- a per-request deadline (from a :class:`RetryPolicy`) bounds the pending
  table: on expiry the probe is retransmitted with exponential backoff or,
  out of attempts, surrendered to its ``on_timeout`` callback;
- echoes are matched against the *recorded request* (task id and expected
  responder), so misrouted or reflected echoes from other hosts are
  counted as orphans instead of cross-wiring state;
- late and duplicate echoes (a retransmission racing its original, a
  duplicating link) are deduplicated and counted, never double-delivered.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.assembler import AssembledProgram
from repro.core.exceptions import FaultCode
from repro.core.memory_map import MemoryMap
from repro.core.tpp import FLAG_DONE, FLAG_FAULT, TPPSection
from repro.core.verifier import (
    AdmissionKey,
    Diagnostic,
    VerificationError,
    VerificationResult,
    admission_key,
    verify_program,
)
from repro.errors import ReproError
from repro.net.host import Host
from repro.net.packet import ETHERTYPE_TPP, Datagram, EthernetFrame
from repro.sim.timers import OneShotTimer

ResponseCallback = Callable[["TPPResultView"], None]
TimeoutCallback = Callable[["ProbeRequest"], None]
TPPTap = Callable[[TPPSection, EthernetFrame], None]

#: Completed-request memo: (outcome, first_sent_ns, attempts).
CompletedEntry = Tuple[str, int, int]

#: The TPP header carries an 8-bit sequence number (see
#: :data:`repro.core.tpp._HEADER_STRUCT`); this is the whole wire space.
SEQ_SPACE = 256

#: How many completed (answered or timed-out) requests to remember for
#: classifying stragglers as duplicate/late rather than orphan.
_COMPLETED_MEMORY = 2 * SEQ_SPACE

#: Bounded memo of per-program verification verdicts (an endpoint sends
#: the same few programs over and over; re-verifying per probe would put
#: the whole static analysis on the send hot path).
_ADMISSION_CACHE_SIZE = 64

#: Endpoint admission modes (the `Millions of Little Minions` end-host
#: agent responsibility): ``off`` skips verification, ``warn`` verifies
#: and counts but still sends, ``enforce`` refuses to inject a program
#: with error-severity diagnostics.
VERIFY_MODES = ("off", "warn", "enforce")

#: How an endpoint with a configured ``hop_budget`` reconciles it with
#: the verifier's measured memory hop capacity (the TPP009 scan):
#: ``auto`` grows a too-small program's packet memory to fit the budget
#: when that is provably sound, ``reject`` refuses the send outright.
#: Either way a probe that *would* have faulted mid-path at hop N
#: (``STACK_OVERFLOW`` / ``MEMORY_BOUNDS``) is stopped at the endpoint.
HOP_BUDGET_MODES = ("auto", "reject")

#: Smoothing for the endpoint's echo-RTT estimate (TCP's srtt, but a
#: faster gain: probes fire every few ms, so the estimate should track
#: queue build-up within a handful of samples).
RTT_EWMA_ALPHA = 0.25

#: Default ``RetryPolicy.rtt_multiplier`` for policies derived by the
#: prober and the RCP* controller.  Generous on purpose: a deadline
#: exists to catch genuine loss and bound the pending table, not to race
#: queueing delay — and without variance tracking the headroom has to
#: absorb RTT swinging several-fold as queues fill and drain.
DEFAULT_RTT_MULTIPLIER = 6.0


class ProbeWindowFull(ReproError):
    """All 256 wire sequence numbers have a probe in flight.

    Senders that can see this many probes outstanding should cap their
    emission (as :class:`~repro.endhost.probes.PeriodicProber` does) or
    configure a :class:`RetryPolicy` so stale entries expire.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline/retransmission policy for one probe.

    ``max_attempts`` counts transmissions in total: 1 means a bare
    deadline with no retransmission.  The timeout for attempt *n* is
    ``timeout_ns * backoff**(n-1)``, clamped to ``max_timeout_ns`` and
    spread by ``±jitter_fraction`` (to decorrelate retry storms).

    ``rtt_multiplier`` makes the deadline *adaptive*: a nonzero value
    raises each attempt's timeout to at least ``rtt_multiplier`` times
    the endpoint's smoothed echo RTT.  Probes share queues with the
    traffic they monitor, so congestion stretches their RTT by orders of
    magnitude — a static deadline would misread that delay as loss and
    (worse) feed phantom-loss signals to the very control loop trying to
    drain the queue.  ``timeout_ns`` then acts as the floor used until
    an RTT estimate exists.
    """

    timeout_ns: int
    max_attempts: int = 1
    backoff: float = 2.0
    max_timeout_ns: Optional[int] = None
    jitter_fraction: float = 0.0
    rtt_multiplier: float = 0.0

    def __post_init__(self) -> None:
        if self.timeout_ns <= 0:
            raise ValueError(f"timeout must be positive: {self.timeout_ns}")
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1: {self.backoff}")
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1): {self.jitter_fraction}")
        if self.rtt_multiplier < 0.0:
            raise ValueError(
                f"rtt_multiplier must be >= 0: {self.rtt_multiplier}")

    def timeout_for(self, attempt: int,
                    rng: Optional[random.Random] = None,
                    rtt_ewma_ns: float = 0.0) -> int:
        """Deadline (ns) to arm before transmission number ``attempt``."""
        base = float(self.timeout_ns)
        if self.rtt_multiplier and rtt_ewma_ns:
            base = max(base, self.rtt_multiplier * rtt_ewma_ns)
        timeout = base * self.backoff ** (attempt - 1)
        if self.max_timeout_ns is not None:
            timeout = min(timeout, self.max_timeout_ns)
        if self.jitter_fraction and rng is not None:
            timeout *= 1.0 + rng.uniform(-self.jitter_fraction,
                                         self.jitter_fraction)
        return max(1, round(timeout))


@dataclass
class ProbeRequest:
    """One outstanding probe: identity, callbacks, and retry state."""

    probe_id: int                       #: endpoint-unique, never reused
    seq: int                            #: 8-bit wire slot, unique in flight
    task_id: int
    responder_mac: Optional[int]        #: expected echo source (if known)
    program: Optional[AssembledProgram]
    payload: object = None
    on_response: Optional[ResponseCallback] = None
    on_timeout: Optional[TimeoutCallback] = None
    policy: Optional[RetryPolicy] = None
    attempts: int = 1
    first_sent_ns: int = 0
    timer: Optional[OneShotTimer] = field(default=None, repr=False)


#: One hop's words, big-endian, by (per-hop bytes, word size); the
#: header's one-byte per-hop length bounds the keys.
_HOP_ROWS: Dict[Tuple[int, int], struct.Struct] = {}


class TPPResultView:
    """Decoded view of a TPP that came back from the network."""

    def __init__(self, tpp: TPPSection, time_ns: int = 0,
                 rtt_ns: int = 0) -> None:
        self.tpp = tpp
        self.time_ns = time_ns
        #: Round-trip time of the probe (0 when the endpoint had no
        #: request record to measure against).
        self.rtt_ns = rtt_ns

    @property
    def seq(self) -> int:
        """Sequence number the sender stamped on the probe."""
        return self.tpp.seq

    @property
    def fault(self) -> FaultCode:
        """Fault recorded during execution, if any."""
        return self.tpp.fault

    @property
    def ok(self) -> bool:
        """True when the TPP executed without faulting anywhere."""
        tpp = self.tpp
        return not tpp.flags & FLAG_FAULT or tpp.fault == FaultCode.NONE

    def hops(self) -> int:
        """Number of switches that executed the TPP."""
        return self.tpp.hops_executed()

    def per_hop_words(self) -> List[List[int]]:
        """Collected samples as one list of words per hop.

        "The end-host knows exactly how to interpret values in the packet"
        (§2.1) — this is that interpretation, driven by the per-hop
        footprint the assembler recorded in the header.
        """
        tpp = self.tpp
        perhop = tpp.perhop_len_bytes
        word = tpp.word_size
        if perhop == 0 or perhop % word:
            # Zero or ragged per-hop footprint: nothing interpretable
            # (the latter only happens to corrupted/hostile packets).
            return []
        memory = tpp.memory
        # Clamp to what the packet can actually hold: a malformed or
        # truncated TPP must not crash its reader.
        hops = min(tpp.hops_executed(), len(memory) // perhop)
        row = _HOP_ROWS.get((perhop, word))
        if row is None:
            row = _HOP_ROWS[perhop, word] = struct.Struct(
                f">{perhop // word}{'I' if word == 4 else 'Q'}")
        return [list(row.unpack_from(memory, hop * perhop))
                for hop in range(hops)]

    def word(self, index: int) -> int:
        """One absolute packet-memory word."""
        return self.tpp.read_word(index * self.tpp.word_size)


class TPPEndpoint:
    """Per-host TPP sender, echo responder, and demultiplexer."""

    COUNTERS = ("probes_sent", "responses_received", "tpps_echoed",
                "trimmed_echoes", "payloads_delivered", "timeouts",
                "retries", "orphan_responses", "duplicate_responses",
                "late_responses", "pending_count", "probes_rejected",
                "probes_auto_sized", "probes_warned")

    def __init__(self, host: Host, default_dst_mac: Optional[int] = None,
                 echo_probes: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 verify_mode: str = "off",
                 verify_memory_map: Optional[MemoryMap] = None,
                 hop_budget: Optional[int] = None,
                 hop_budget_mode: str = "auto") -> None:
        if verify_mode not in VERIFY_MODES:
            raise ValueError(
                f"verify_mode must be one of {VERIFY_MODES}, "
                f"got {verify_mode!r}")
        if hop_budget_mode not in HOP_BUDGET_MODES:
            raise ValueError(
                f"hop_budget_mode must be one of {HOP_BUDGET_MODES}, "
                f"got {hop_budget_mode!r}")
        if hop_budget is not None and hop_budget < 1:
            raise ValueError(f"hop_budget must be >= 1: {hop_budget}")
        self.host = host
        self.default_dst_mac = default_dst_mac
        self.echo_probes = echo_probes
        #: Static-verification admission mode (see :data:`VERIFY_MODES`).
        self.verify_mode = verify_mode
        self.verify_memory_map = verify_memory_map
        #: Hops every probe from this endpoint must survive (typically
        #: the topology's diameter).  ``None`` trusts each program's own
        #: ``.hops`` geometry — the historical behaviour, which faults
        #: mid-path when the caller under-sized the allocation.
        self.hop_budget = hop_budget
        self.hop_budget_mode = hop_budget_mode
        self._admissions: (
            "OrderedDict[AdmissionKey, VerificationResult]") = OrderedDict()
        #: Auto-sized replacements keyed like the admission cache, so a
        #: probing loop pays for the resize (and its confirming
        #: re-verification) once per program.
        self._budgeted: "OrderedDict[AdmissionKey, AssembledProgram]" = (
            OrderedDict())
        #: Default policy for probes sent without an explicit one.
        #: ``None`` preserves the historical behaviour: no deadline, the
        #: request waits forever (fine on lossless topologies).
        self.retry_policy = retry_policy
        self._seq = itertools.count(0)
        self._probe_ids = itertools.count(0)
        self._pending: Dict[int, ProbeRequest] = {}
        #: (seq, task_id) of recently answered/expired requests, for
        #: classifying stragglers.  Values: ("done" | "timeout",
        #: first_sent_ns, attempts).
        self._completed: (
            "OrderedDict[Tuple[int, int], CompletedEntry]") = OrderedDict()
        self._retry_rng: Optional[random.Random] = None
        self._taps: List[TPPTap] = []
        #: Task ids whose *payload-carrying* TPPs get a trimmed echo: the
        #: data is delivered locally and the executed TPP section alone
        #: (no payload) is sent back to the source — how piggybacked
        #: probes ("using the flow's packets", §2.2) report home without
        #: re-transmitting the data.
        self._trimmed_echo_tasks: Set[int] = set()
        self.probes_sent = 0
        self.responses_received = 0
        self.tpps_echoed = 0
        self.trimmed_echoes = 0
        self.payloads_delivered = 0
        self.timeouts = 0
        self.retries = 0
        self.orphan_responses = 0
        self.duplicate_responses = 0
        self.late_responses = 0
        #: Sends refused by enforce-mode verification or the hop budget.
        self.probes_rejected = 0
        #: Sends whose program was transparently re-sized to the hop
        #: budget (``hop_budget_mode="auto"``).
        self.probes_auto_sized = 0
        #: Sends that carried a program with error diagnostics anyway
        #: (warn mode).
        self.probes_warned = 0
        #: Smoothed echo RTT (ns); 0 until the first echo is matched.
        #: Adaptive policies (``rtt_multiplier``) scale deadlines by it.
        self.rtt_ewma_ns = 0.0
        host.on_ethertype(ETHERTYPE_TPP, self._on_tpp_frame)

    @property
    def pending_count(self) -> int:
        """Outstanding probes awaiting an echo (bounded by ``SEQ_SPACE``)."""
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Admission (static verification)
    # ------------------------------------------------------------------ #

    def admit(self, program: AssembledProgram) -> VerificationResult:
        """Statically verify a program against this endpoint's settings.

        Returns the :class:`~repro.core.verifier.VerificationResult`
        (memoized per program fingerprint + memory image, so probing
        loops pay for the analysis once).  Does not apply the admission
        mode — :meth:`send` does; call this directly to inspect
        diagnostics or obtain the fast-path certificate.
        """
        key = admission_key(program)
        cached = self._admissions.get(key)
        if cached is not None:
            self._admissions.move_to_end(key)
            return cached
        result = verify_program(program,
                                memory_map=self.verify_memory_map)
        self._admissions[key] = result
        while len(self._admissions) > _ADMISSION_CACHE_SIZE:
            self._admissions.popitem(last=False)
        return result

    # ------------------------------------------------------------------ #
    # Hop budgeting (verifier-driven allocation sizing)
    # ------------------------------------------------------------------ #

    def plan_hops(self, program: AssembledProgram) -> Optional[int]:
        """Hops the program's packet memory provably supports.

        The verifier's TPP009 budget scan, surfaced structurally
        (memoized with the rest of admission).  ``None`` means no hop
        inside the scan horizon can violate bounds — effectively
        unbounded, e.g. a program with a zero per-hop footprint.
        """
        return self.admit(program).hop_capacity

    def budget(self, program: AssembledProgram) -> AssembledProgram:
        """Reconcile a program's memory geometry with ``hop_budget``.

        The paper has the end-host "preallocate enough packet memory"
        for the path (§2.1), but nothing checked the caller's arithmetic:
        a program assembled for fewer hops than the path is long sails
        through admission and faults mid-path at hop N.
        With a budget configured, the verifier's measured capacity
        decides *before* transmission: a sufficient program passes
        through untouched; an under-sized one is either transparently
        re-sized (``auto`` — only when the literal pool is empty, so
        appending zeroed stack/hop words cannot shift any operand the
        instructions reference) or refused with a synthetic error-grade
        ``TPP009`` (``reject``, or ``auto`` when re-sizing is unsound).
        The re-sized program is re-verified to confirm the new capacity
        before anything is sent.
        """
        if self.hop_budget is None:
            return program
        capacity = self.plan_hops(program)
        if capacity is None or capacity >= self.hop_budget:
            return program
        key = admission_key(program)
        cached = self._budgeted.get(key)
        if cached is not None:
            self._budgeted.move_to_end(key)
            self.probes_auto_sized += 1
            return cached
        word = program.word_size
        poolless = program.pool_base_word * word == len(
            program.initial_memory)
        if (self.hop_budget_mode == "reject" or not poolless
                or program.perhop_len_bytes <= 0):
            raise self._refuse_budget(program, capacity, poolless)
        pad_bytes = (self.hop_budget - capacity) * program.perhop_len_bytes
        pad_words = pad_bytes // word
        resized = dataclasses.replace(
            program,
            initial_memory=program.initial_memory + bytes(pad_bytes),
            memory_words=program.memory_words + pad_words,
            pool_base_word=program.pool_base_word + pad_words,
            hops=self.hop_budget,
            _verification=None)
        confirmed = self.admit(resized).hop_capacity
        if confirmed is not None and confirmed < self.hop_budget:
            raise self._refuse_budget(program, capacity, poolless)
        self._budgeted[key] = resized
        while len(self._budgeted) > _ADMISSION_CACHE_SIZE:
            self._budgeted.popitem(last=False)
        self.probes_auto_sized += 1
        return resized

    def _refuse_budget(self, program: AssembledProgram,
                       capacity: int, poolless: bool) -> VerificationError:
        self.probes_rejected += 1
        why = ("" if self.hop_budget_mode == "reject" else
               "; auto-sizing is unsound here" +
               ("" if poolless else
                " (the literal pool sits where the memory would grow)"))
        diagnostic = Diagnostic(
            code="TPP009", severity="error",
            message=(f"endpoint hop budget {self.hop_budget} exceeds the "
                     f"{capacity} hop(s) supported by the program's "
                     f"{len(program.initial_memory)} B of packet "
                     f"memory{why}"),
            hop=capacity)
        return VerificationError(
            VerificationResult(diagnostics=[diagnostic],
                               hop_capacity=capacity))

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, program: AssembledProgram, dst_mac: Optional[int] = None,
             payload: object = None, task_id: int = 0,
             on_response: Optional[ResponseCallback] = None,
             on_timeout: Optional[TimeoutCallback] = None,
             retry_policy: Optional[RetryPolicy] = None) -> int:
        """Instantiate and transmit a program; returns the sequence number.

        ``on_response`` fires when the echoed, fully-executed TPP returns.
        With a :class:`RetryPolicy` (per-call or the endpoint default),
        the probe is retransmitted on deadline expiry and ``on_timeout``
        fires once all attempts are exhausted.
        """
        if dst_mac is None:
            dst_mac = self.default_dst_mac
        if dst_mac is None:
            raise ValueError("no destination MAC for TPP probe")
        program, seq = self._prepare(program, dst_mac, payload, task_id,
                                     on_response, on_timeout, retry_policy)
        tpp = program.build(payload=payload, task_id=task_id, seq=seq)
        frame = EthernetFrame(dst=dst_mac, src=self.host.mac,
                              ethertype=ETHERTYPE_TPP, payload=tpp)
        self.probes_sent += 1
        self.host.send_frame(frame)
        return seq

    def send_tpp(self, tpp: TPPSection, dst_mac: int) -> None:
        """Transmit an already-built TPP section as a bare frame."""
        frame = EthernetFrame(dst=dst_mac, src=self.host.mac,
                              ethertype=ETHERTYPE_TPP, payload=tpp)
        self.host.send_frame(frame)

    def wrap(self, program: AssembledProgram, payload: object,
             task_id: int = 0,
             on_response: Optional[ResponseCallback] = None,
             on_timeout: Optional[TimeoutCallback] = None,
             retry_policy: Optional[RetryPolicy] = None,
             dst_mac: Optional[int] = None) -> TPPSection:
        """Build a data-carrying TPP (a piggybacked probe) and register
        its response callback; the caller transmits the frame.

        The receiving endpoint must have trimmed echoes enabled for this
        task id (see :meth:`enable_trimmed_echo`), otherwise no response
        comes back.  ``dst_mac`` (the intended receiver) is optional but
        enables response matching and standalone retransmission on loss.
        """
        program, seq = self._prepare(program, dst_mac, None, task_id,
                                     on_response, on_timeout, retry_policy)
        return program.build(payload=payload, task_id=task_id, seq=seq)

    def enable_trimmed_echo(self, task_id: int) -> None:
        """Echo executed TPPs of this task back (payload stripped) even
        when they carry data."""
        self._trimmed_echo_tasks.add(task_id)

    # ------------------------------------------------------------------ #
    # Request records and the sequence window
    # ------------------------------------------------------------------ #

    def _alloc_free_seq(self) -> int:
        """Next wire seq whose slot has no probe in flight."""
        for _ in range(SEQ_SPACE):
            seq = next(self._seq) % SEQ_SPACE
            if seq not in self._pending:
                return seq
        raise ProbeWindowFull(
            f"{self.host.name}: all {SEQ_SPACE} probe sequence numbers "
            f"are in flight")

    def _prepare(self, program: AssembledProgram, dst_mac: Optional[int],
                 payload: object, task_id: int,
                 on_response: Optional[ResponseCallback],
                 on_timeout: Optional[TimeoutCallback],
                 retry_policy: Optional[RetryPolicy]
                 ) -> Tuple[AssembledProgram, int]:
        """Everything :meth:`send` and :meth:`wrap` do before building the
        section: fit the program to the hop budget, apply the admission
        mode, and create and arm a request record (none for
        fire-and-forget).  Returns the program to build and its seq."""
        if self.hop_budget is not None:
            program = self.budget(program)
        if self.verify_mode != "off":
            result = self.admit(program)
            if not result.ok:
                if self.verify_mode == "enforce":
                    self.probes_rejected += 1
                    raise VerificationError(result)
                self.probes_warned += 1
        policy = (retry_policy if retry_policy is not None
                  else self.retry_policy)
        seq = self._alloc_free_seq()
        if on_response is None and on_timeout is None and policy is None:
            return program, seq
        record = ProbeRequest(
            probe_id=next(self._probe_ids), seq=seq, task_id=task_id,
            responder_mac=dst_mac, program=program, payload=payload,
            on_response=on_response, on_timeout=on_timeout, policy=policy,
            first_sent_ns=self.host.sim.now_ns)
        self._pending[seq] = record
        if policy is not None:
            record.timer = OneShotTimer(self.host.sim,
                                        self._on_deadline, record)
            record.timer.start(policy.timeout_for(1, self._jitter_rng(),
                                                  self.rtt_ewma_ns))
        return program, seq

    def _jitter_rng(self) -> random.Random:
        if self._retry_rng is None:
            self._retry_rng = self.host.sim.rng.stream(
                f"tpp-retry/{self.host.name}")
        return self._retry_rng

    def _on_deadline(self, record: ProbeRequest) -> None:
        if self._pending.get(record.seq) is not record:
            return  # answered in the same instant; stale timer
        policy = record.policy
        assert policy is not None
        can_retry = (record.attempts < policy.max_attempts
                     and record.program is not None
                     and record.responder_mac is not None)
        if not can_retry:
            del self._pending[record.seq]
            self._note_completed(record, "timeout")
            self.timeouts += 1
            if record.on_timeout is not None:
                record.on_timeout(record)
            return
        assert record.program is not None
        assert record.responder_mac is not None
        record.attempts += 1
        self.retries += 1
        # Retransmit standalone: for piggybacked probes the data's own
        # transport owns the payload, the probe layer only re-asks the
        # question.  Same seq — it is the same logical request.
        tpp = record.program.build(payload=record.payload,
                                   task_id=record.task_id, seq=record.seq)
        frame = EthernetFrame(dst=record.responder_mac, src=self.host.mac,
                              ethertype=ETHERTYPE_TPP, payload=tpp)
        self.probes_sent += 1
        self.host.send_frame(frame)
        assert record.timer is not None
        record.timer.start(policy.timeout_for(record.attempts,
                                              self._jitter_rng(),
                                              self.rtt_ewma_ns))

    def _note_completed(self, record: ProbeRequest, outcome: str) -> None:
        key = (record.seq, record.task_id)
        self._completed[key] = (outcome, record.first_sent_ns,
                                record.attempts)
        self._completed.move_to_end(key)
        while len(self._completed) > _COMPLETED_MEMORY:
            self._completed.popitem(last=False)

    def _fold_rtt(self, rtt: float) -> None:
        if self.rtt_ewma_ns:
            self.rtt_ewma_ns += RTT_EWMA_ALPHA * (rtt - self.rtt_ewma_ns)
        else:
            self.rtt_ewma_ns = float(rtt)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def add_tap(self, tap: TPPTap) -> None:
        """Observe every executed TPP that terminates at this host."""
        self._taps.append(tap)

    def _on_tpp_frame(self, frame: EthernetFrame) -> None:
        tpp = frame.payload
        if not isinstance(tpp, TPPSection):
            return
        if tpp.flags & FLAG_DONE:
            self._on_response(tpp, frame)
            return
        for tap in self._taps:
            tap(tpp, frame)
        if isinstance(tpp.payload, Datagram):
            self._deliver_payload(tpp.payload, frame)
            if tpp.task_id in self._trimmed_echo_tasks:
                trimmed = tpp.copy()
                trimmed.payload = None
                self.trimmed_echoes += 1
                self._echo(trimmed, frame)
        elif self.echo_probes:
            self._echo(tpp, frame)

    def _on_response(self, tpp: TPPSection, frame: EthernetFrame) -> None:
        self.responses_received += 1
        record = self._pending.get(tpp.seq)
        # An echo answers the recorded request only if the task id agrees
        # and, when the request knew its responder, it comes from that
        # host: a reflected or misrouted echo of someone else's probe
        # must not consume our record.
        if (record is None or tpp.task_id != record.task_id
                or (record.responder_mac is not None
                    and frame.src != record.responder_mac)):
            entry = self._completed.get((tpp.seq, tpp.task_id))
            outcome = entry[0] if entry is not None else None
            if outcome == "done":
                self.duplicate_responses += 1
            elif outcome == "timeout":
                assert entry is not None
                self.late_responses += 1
                # A late echo is still a valid RTT sample (Karn's rule
                # permitting), and the most important one: it proves the
                # deadline underestimated the path.  Folding it lets the
                # adaptive deadline escape a too-small initial estimate
                # even when *every* early probe is expiring.
                _, sent_ns, attempts = entry
                if attempts == 1:
                    self._fold_rtt(self.host.sim.now_ns - sent_ns)
            else:
                self.orphan_responses += 1
            return
        del self._pending[tpp.seq]
        if record.timer is not None:
            record.timer.cancel()
        self._note_completed(record, "done")
        now = self.host.sim.now_ns
        rtt = now - record.first_sent_ns
        if record.attempts == 1:
            # Karn's rule: a retransmitted probe's echo is ambiguous
            # (original or retry?), so only clean samples feed the RTT.
            self._fold_rtt(rtt)
        if record.on_response is not None:
            record.on_response(TPPResultView(tpp, now, rtt_ns=rtt))

    def _echo(self, tpp: TPPSection, frame: EthernetFrame) -> None:
        tpp.flags |= FLAG_DONE
        self.tpps_echoed += 1
        echo = EthernetFrame(dst=frame.src, src=self.host.mac,
                             ethertype=ETHERTYPE_TPP, payload=tpp)
        self.host.send_frame(echo)

    def _deliver_payload(self, datagram: Datagram,
                         frame: EthernetFrame) -> None:
        self.payloads_delivered += 1
        self.host.deliver_datagram(datagram, frame)
