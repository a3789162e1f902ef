"""Point-to-point links: serialization plus propagation delay.

A :class:`Link` is unidirectional (one transmitter, one receiver endpoint);
:func:`connect` wires a full-duplex pair between two device ports.  The
transmit side is driven by the :class:`~repro.net.port.Port` that owns it —
the port dequeues a packet, occupies the link for the packet's serialization
time, and the link delivers the frame to the far device after the
propagation delay.

Two paths to the peer
---------------------

On a :attr:`Link.direct` link (up, unimpaired, with a local receiver)
the port schedules :meth:`Link._arrive` when serialization starts; every
other link decides when it ends (:meth:`deliver_after_propagation`).
Either way same-instant arrivals land in the order their serializations
started (docs/architecture.md, "Event representation").

Impairments
-----------

A link may carry a seeded :class:`LinkImpairments` model (loss, corruption,
duplication), the fault-injection layer the probe-reliability machinery in
:mod:`repro.endhost.client` is tested against.  The unimpaired hot path
pays a single ``is None`` check; all stochastic work lives behind it.
Corruption damages the *packet memory* of a TPP in flight (truncation or
bit-flips — what a mangled length field or soft error does to the part of
the packet the reliability layer must parse defensively); a corrupted
non-TPP frame is dropped at the receiver the way a bad-FCS frame would be.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.packet import EthernetFrame
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import Device
    from repro.net.port import Port


class LinkImpairments:
    """Stochastic impairment profile for one link direction.

    Rates are independent per-frame probabilities drawn, in a fixed order
    (loss, then corruption, then duplication), from one seeded stream —
    runs with the same seed and traffic replay bit-identically.
    """

    __slots__ = ("loss_rate", "corrupt_rate", "duplicate_rate", "rng")

    def __init__(self, rng: random.Random, loss_rate: float = 0.0,
                 corrupt_rate: float = 0.0,
                 duplicate_rate: float = 0.0) -> None:
        for name, rate in (("loss_rate", loss_rate),
                           ("corrupt_rate", corrupt_rate),
                           ("duplicate_rate", duplicate_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability in [0, 1], got {rate}")
        self.rng = rng
        self.loss_rate = loss_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate


class Link:
    """One direction of a wire: ``rate_bps`` and ``delay_ns`` to the peer."""

    COUNTERS: Tuple[str, ...] = (
        "bytes_delivered", "frames_delivered", "frames_lost",
        "frames_impaired_lost", "frames_corrupted", "frames_duplicated")

    def __init__(self, sim: Simulator, rate_bps: int, delay_ns: int = 1_000,
                 name: str = "") -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"link rate must be positive: {rate_bps}")
        if delay_ns < 0:
            raise ConfigurationError(f"link delay must be >= 0: {delay_ns}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.name = name
        self.peer_device: Optional["Device"] = None
        self.peer_port_index: Optional[int] = None
        self._peer_inbound: Optional[Dict[int, int]] = None
        #: The port transmitting onto this link (set by the port).
        self.port: Optional["Port"] = None
        #: Internal state, kept by ``_choose_path``: see the docstring.
        self.direct = False
        #: Administrative / physical state.  A downed link silently loses
        #: every frame handed to it (and everything already in flight
        #: arrives — photons in the fiber don't care about the failure).
        self.up = True
        #: Impairment model, or ``None`` (the default) for a perfect link.
        self.impairments: Optional[LinkImpairments] = None
        self.bytes_delivered = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        self.frames_impaired_lost = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0

    def attach_receiver(self, device: "Device", port_index: int) -> None:
        """Set the device/port that frames on this link arrive at."""
        self.peer_device = device
        self.peer_port_index = port_index
        # Hot-path alias: the arrival ledger is touched once per frame
        # at schedule time and once at delivery, and only kept at all
        # for receivers that batch their ingress.
        self._peer_inbound = (device.inbound_at if device.batches_ingress
                              else None)
        self._choose_path()

    def fail(self) -> None:
        """Take the link down; frames whose serialization has not ended
        are lost."""
        self.up = False
        self._choose_path()

    def restore(self) -> None:
        """Bring the link back up."""
        self.up = True
        self._choose_path()

    def _choose_path(self) -> None:
        """Set :attr:`direct`; leaving the direct path, hand the frame
        still being serialized (until now, inclusive) to the decision at
        the end, in its arrival's place, and retract that arrival."""
        direct = (self.up and self.impairments is None
                  and self.peer_device is not None)
        port = self.port
        if self.direct and not direct and port is not None:
            arrival = port.wire_arrival
            sim = self.sim
            if (arrival is not None and arrival._sim is sim
                    and port.wire_until_ns >= sim.now_ns):
                arrival.cancel()
                port.wire_arrival = None
                arrivals = self._peer_inbound
                if arrivals is not None:
                    arrivals[arrival.time_ns] -= 1
                    if not arrivals[arrival.time_ns]:
                        del arrivals[arrival.time_ns]
                sim.schedule_at(port.wire_until_ns,
                                self.deliver_after_propagation,
                                port.wire_frame, arrival.sequence)
        self.direct = direct

    def set_impairments(self, loss_rate: float = 0.0,
                        corrupt_rate: float = 0.0,
                        duplicate_rate: float = 0.0,
                        rng: Optional[random.Random] = None) -> None:
        """Configure (or, with all rates zero, remove) the impairment model.

        The RNG defaults to the simulator's named stream
        ``impair/<link-name>``, so distinct links impair independently and
        deterministically under one experiment seed.  An unnamed link has
        nothing reproducible to be keyed by (``id()`` is a per-process
        address), so it seeds a private stream with the next draw of the
        shared ``impair/unnamed`` stream: the n-th unnamed link impaired
        in a simulator gets the same stream in every run.
        """
        if not (loss_rate or corrupt_rate or duplicate_rate):
            self.impairments = None
            self._choose_path()
            return
        if rng is None:
            streams = self.sim.rng
            rng = (streams.stream(f"impair/{self.name}") if self.name
                   else random.Random(
                       streams.stream("impair/unnamed").getrandbits(64)))
        self.impairments = LinkImpairments(
            rng, loss_rate=loss_rate, corrupt_rate=corrupt_rate,
            duplicate_rate=duplicate_rate)
        self._choose_path()

    def deliver_after_propagation(self, frame: EthernetFrame,
                                  order: Optional[float] = None) -> None:
        """Schedule arrival at the peer one propagation delay from now.

        Runs when the frame's serialization ends on a link that is not
        :attr:`direct`.  What it schedules takes the place of ``order``,
        the sequence number taken when serialization started (``None``:
        after everything scheduled so far).
        """
        if self.peer_device is None or self.peer_port_index is None:
            raise ConfigurationError(f"link {self.name!r} has no receiver")
        if order is not None:
            # Just behind ``order`` itself, which the cancelled arrival of
            # a frame handed over by ``_choose_path`` still holds.
            order += 0.25
        if not self.up:
            self.frames_lost += 1
            trace = self.peer_device.trace
            if trace.wants("link.lost"):
                trace.emit(self.sim.now_ns, self.name or "link", "link.lost",
                           frame_uid=frame.uid, size_bytes=frame.size_bytes,
                           reason="down")
            return
        if self.impairments is not None:
            self._deliver_impaired(frame, order)
            return
        self._schedule_at_peer(order, self._arrive, frame)

    # ------------------------------------------------------------------ #
    # Impaired delivery (off the hot path: only runs when configured)
    # ------------------------------------------------------------------ #

    def _deliver_impaired(self, frame: EthernetFrame,
                          order: Optional[float]) -> None:
        imp = self.impairments
        assert imp is not None
        rng = imp.rng
        trace = self.peer_device.trace if self.peer_device else None
        # A wire duplicate is an independent copy of the *transmitted*
        # signal: it is cloned before any damage to the original and
        # rolls its own loss/corruption.  The draw order is fixed —
        # loss(orig), corrupt(orig), dup?, then loss(dup)/corrupt(dup)
        # only when the dup roll fired — so a given seed replays one
        # byte-identical delivery sequence, regardless of outcomes.
        pristine = frame.clone() if imp.duplicate_rate else None
        self._impair_one(frame, imp, rng, trace, order)
        if pristine is not None and rng.random() < imp.duplicate_rate:
            self.frames_duplicated += 1
            if trace is not None and trace.wants("link.dup"):
                trace.emit(self.sim.now_ns, self.name or "link", "link.dup",
                           frame_uid=frame.uid, size_bytes=pristine.size_bytes)
            # The copy lands right behind the original.
            self._impair_one(pristine, imp, rng, trace,
                             None if order is None else order + 0.25)

    def _impair_one(self, frame: EthernetFrame, imp: "LinkImpairments",
                    rng: random.Random, trace: Optional[TraceRecorder],
                    order: Optional[float]) -> None:
        """Loss and corruption rolls for one copy; schedules its arrival.

        Verdicts are *drawn* here, at transmit time — the draw order is
        part of the determinism contract — but realized at the receiver:
        a copy that the rolls kill still occupies its arrival instant on
        the wire, so it is announced in the peer's ledger like any other
        delivery and retired by a tombstone when it would have landed.
        Dropping it silently at transmit would leave nothing to announce
        and, worse, the inverse design (announce, then forget) would
        leave a stale ledger instant behind for every in-flight loss.
        """
        if imp.loss_rate and rng.random() < imp.loss_rate:
            self._schedule_at_peer(order, self._arrive_dead, frame,
                                   "impairment")
            return
        if imp.corrupt_rate and rng.random() < imp.corrupt_rate:
            damaged = self._corrupt(frame, rng, trace)
            if damaged is None:
                # Unreceivable (bad FCS at the far NIC): the bytes still
                # cross the wire and die on arrival.
                self._schedule_at_peer(order, self._arrive_dead, frame,
                                       "corrupt-fcs")
                return
            frame = damaged
        self._schedule_at_peer(order, self._arrive, frame)

    def _corrupt(self, frame: EthernetFrame, rng: random.Random,
                 trace: Optional[TraceRecorder]
                 ) -> Optional[EthernetFrame]:
        """Damage the frame in flight; ``None`` means it was unreceivable.

        TPP frames get their packet memory truncated or bit-flipped —
        exactly the malformed input :class:`~repro.endhost.client.
        TPPResultView` and the ndb collector must survive.  Anything else
        fails its FCS at the receiving NIC and is counted as lost.
        """
        from repro.core.tpp import TPPSection  # deferred: import cycle
        tpp = frame.payload
        if not isinstance(tpp, TPPSection):
            # Loss accounting and the ``link.lost`` trace happen at the
            # receiver (``_arrive_dead``), where the FCS check would run.
            return None
        self.frames_corrupted += 1
        damage = "bitflip"
        memory = tpp.memory
        if memory and rng.random() < 0.5:
            # Truncate to a shorter (still 4-aligned) memory: the short
            # read a mangled length field produces downstream.
            keep = rng.randrange(0, len(memory) // 4) * 4
            del memory[keep:]
            frame.invalidate_size_cache()
            damage = "truncate"
        elif memory:
            for _ in range(rng.randint(1, min(8, len(memory)))):
                memory[rng.randrange(len(memory))] ^= 1 << rng.randrange(8)
        else:
            # No memory to damage: scramble the hop/SP field instead.
            tpp.hop_or_sp ^= 1 << rng.randrange(16)
            damage = "header"
        # Every damage mode bypasses the TPP's mutator methods, so its
        # memoized fingerprint / wire bytes / length are all stale now.
        tpp.invalidate_caches()
        if trace is not None and trace.wants("link.corrupt"):
            trace.emit(self.sim.now_ns, self.name or "link", "link.corrupt",
                       frame_uid=frame.uid, size_bytes=frame.size_bytes,
                       damage=damage)
        return frame

    def _schedule_at_peer(self, order: Optional[float],
                          callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback`` one propagation delay from now, in the
        place of ``order`` (see :meth:`deliver_after_propagation`), and
        announce it in the peer's ledger.

        ``callback`` is ``_arrive``, or ``_arrive_dead`` for a copy whose
        in-flight death is already decided.  The announcement is what
        lets the receiving switch decide, from inside its ``receive``
        callback, whether any *other* frame can still land this instant
        (and therefore whether deferring for a TCPU batch is
        worthwhile).  With a positive propagation delay every arrival for
        time ``t`` is announced before ``t`` begins, so the ledger is a
        complete signal; a zero-delay link can announce mid-instant,
        which at worst forgoes a batch.  A dead copy is announced like a
        live one and retired by ``_arrive_dead`` at its instant — without
        that the instant's count would never return to zero and the
        receiver would keep scheduling drains for a frame that is not
        coming.  Non-batching receivers (hosts) have no ledger.  On the
        direct path the port inlines this body when serialization starts.
        """
        sim = self.sim
        time_ns = sim.now_ns + self.delay_ns
        if order is None:
            sim.schedule_at(time_ns, callback, *args)
        else:
            sim.schedule_ordered(time_ns, order, callback, *args)
        arrivals = self._peer_inbound
        if arrivals is not None:
            arrivals[time_ns] += 1

    def _retire_announcement(self) -> None:
        """Retire one ledger entry for the current instant.

        (``_arrive`` inlines this same logic on the delivery hot path;
        keep the two in sync.)
        """
        arrivals = self._peer_inbound
        if arrivals is None:
            return
        peer = self.peer_device
        assert peer is not None
        now = self.sim.now_ns
        remaining = arrivals.pop(now, 1) - 1
        if remaining > 0:
            arrivals[now] = remaining
            peer.inbound_now = remaining
        else:
            peer.inbound_now = 0

    def _arrive_dead(self, frame: EthernetFrame, reason: str) -> None:
        """A lost or FCS-failed copy reaches the receiver: count it,
        retire its ledger entry, deliver nothing."""
        self.frames_lost += 1
        self.frames_impaired_lost += 1
        self._retire_announcement()
        peer = self.peer_device
        assert peer is not None
        trace = peer.trace
        if trace.wants("link.lost"):
            trace.emit(self.sim.now_ns, self.name or "link", "link.lost",
                       frame_uid=frame.uid, size_bytes=frame.size_bytes,
                       reason=reason)

    def _arrive(self, frame: EthernetFrame) -> None:
        self.bytes_delivered += frame.size_bytes
        self.frames_delivered += 1
        peer = self.peer_device
        assert peer is not None
        assert self.peer_port_index is not None
        arrivals = self._peer_inbound
        if arrivals is not None:
            # Retire this frame's ledger entry and hand the peer a
            # digest — the count it observes in receive() is only the
            # still-due peers.
            now = self.sim.now_ns
            remaining = arrivals.pop(now, 1) - 1
            if remaining > 0:
                arrivals[now] = remaining
                peer.inbound_now = remaining
            else:
                peer.inbound_now = 0
        trace = peer.trace
        if trace.firehose and trace.wants("link.deliver"):
            # DEBUG firehose: one record per frame per link traversal.
            trace.emit(self.sim.now_ns, self.name or "link", "link.deliver",
                       frame_uid=frame.uid, size_bytes=frame.size_bytes,
                       dst_device=peer.name, port=self.peer_port_index)
        peer.receive(frame, self.peer_port_index)


def connect(sim: Simulator, device_a: "Device", device_b: "Device",
            rate_bps: int, delay_ns: int = 1_000,
            queue_capacity_bytes: int = 512 * 1024,
            n_queues: int = 1) -> Tuple["Port", "Port"]:
    """Create a full-duplex connection between two devices.

    Adds one new port to each device, backed by ``n_queues`` drop-tail
    queues of ``queue_capacity_bytes`` each (strict priority when there
    is more than one), and returns ``(port_on_a, port_on_b)``.
    """
    from repro.net.port import Port  # local import to avoid a cycle

    link_ab = Link(sim, rate_bps, delay_ns,
                   name=f"{device_a.name}->{device_b.name}")
    link_ba = Link(sim, rate_bps, delay_ns,
                   name=f"{device_b.name}->{device_a.name}")

    port_a = Port(sim, link_ab, queue_capacity_bytes, n_queues)
    port_b = Port(sim, link_ba, queue_capacity_bytes, n_queues)
    index_a = device_a.add_port(port_a)
    index_b = device_b.add_port(port_b)

    link_ab.attach_receiver(device_b, index_b)
    link_ba.attach_receiver(device_a, index_a)
    return port_a, port_b
