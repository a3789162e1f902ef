"""The sharded fleet driver: barrier-synchronized regional simulators.

:class:`ShardedFleet` partitions a ring of regions across *shards*
(workers).  Each region keeps its own deterministically-seeded simulator
(:mod:`repro.fleet.region`); the driver advances the whole fleet in
barrier rounds of one *quantum* ``Q`` — the boundary propagation delay:

1. every region runs ``sim.run(until_ns = T + Q)``;
2. each region's outbox (frames serialized onto boundary links during
   the window) is collected;
3. messages are grouped by destination region, sorted into the canonical
   injection order, and injected — a frame emitted in ``[T, T+Q)``
   arrives at ``>= T+Q`` because the boundary delay is at least ``Q``,
   so injection at the barrier never back-dates an event;
4. ``T += Q``.

Because regions are fixed and only their *grouping* onto shards varies,
every per-region event sequence — and therefore every per-flow report,
SRAM image and verifier verdict — is bit-identical for any shard count.

Transports
----------

``inline`` (default) runs every region in this process, round-robin
within each barrier round — same API, no processes, exact on any
machine.  ``fork`` runs each shard as a forked worker process holding
its regions, with a pipe command loop (run / inject / finish); on a
multi-core box the shards' windows genuinely overlap.  Both transports
produce the same digests; only :attr:`FleetResult.wall_seconds` differs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Tuple, Union, cast

from repro.errors import ConfigurationError
from repro.fleet.boundary import BoundaryMessage, injection_order
from repro.fleet.region import Region, RegionSpec, build_region

TRANSPORTS = ("inline", "fork")

#: What one shard's window produces: its regions' boundary messages.
RunResult = List[BoundaryMessage]
#: What one shard reports at the end: per-region (digest, counters).
FinishResult = Dict[int, Tuple[Dict[str, str], Dict[str, int]]]


@dataclasses.dataclass
class FleetResult:
    """Everything one :meth:`ShardedFleet.run` produced."""

    n_regions: int
    shards: int
    transport: str
    duration_ns: int
    quantum_ns: int
    rounds: int
    messages_exchanged: int
    #: Per-region determinism digests, in region order.
    digests: List[Dict[str, str]]
    #: Summed region counters (probes, flows, admissions, switching).
    counters: Dict[str, int]
    #: Real elapsed time of the whole run (driver overhead included).
    wall_seconds: float

    def fingerprint(self) -> str:
        """One hex digest over every region digest — the value that must
        not change when the fleet is resharded."""
        rollup = hashlib.sha256()
        for digest in self.digests:
            rollup.update(digest["flows"].encode())
            rollup.update(digest["switches"].encode())
        return rollup.hexdigest()


class _InlineShard:
    """One shard's regions, executed in this process."""

    def __init__(self, specs: List[RegionSpec]) -> None:
        self.regions: Dict[int, Region] = {
            spec.index: build_region(spec) for spec in specs}
        self._pending_until = 0

    # start_run/collect_run mirror the fork transport's split exchange so
    # the driver can treat every shard uniformly; inline shards simply do
    # the work at collect time, which serializes them exactly as the old
    # eager form did.
    def start_run(self, until_ns: int) -> None:
        self._pending_until = until_ns

    def collect_run(self) -> RunResult:
        return self.run_until(self._pending_until)

    def run_until(self, until_ns: int) -> RunResult:
        messages: List[BoundaryMessage] = []
        for region in self.regions.values():
            messages.extend(region.run_until(until_ns))
        return messages

    def inject(self, region_index: int,
               messages: List[BoundaryMessage]) -> None:
        self.regions[region_index].inject(messages)

    def finish(self) -> FinishResult:
        return {index: (region.digest(), region.counters())
                for index, region in self.regions.items()}

    def close(self) -> None:
        pass


def _fork_worker_main(conn: Connection, specs: List[RegionSpec]) -> None:
    """Forked worker: build regions, then serve the command loop."""
    shard = _InlineShard(specs)
    while True:
        command, payload = conn.recv()
        if command == "run":
            conn.send(shard.run_until(payload))
        elif command == "inject":
            region_index, messages = payload
            shard.inject(region_index, messages)
        elif command == "finish":
            conn.send(shard.finish())
        elif command == "close":
            conn.close()
            return


class _ForkShard:
    """One shard's regions, executed in a forked worker process."""

    def __init__(self, specs: List[RegionSpec]) -> None:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_fork_worker_main, args=(child, specs), daemon=True)
        self._process.start()
        child.close()
        self._awaiting_run = False

    # The run exchange is split so the driver can start *every* shard's
    # window before collecting any result — that's where fork-transport
    # parallelism comes from.
    def start_run(self, until_ns: int) -> None:
        self._conn.send(("run", until_ns))
        self._awaiting_run = True

    def collect_run(self) -> RunResult:
        assert self._awaiting_run
        self._awaiting_run = False
        return cast(RunResult, self._conn.recv())

    def run_until(self, until_ns: int) -> RunResult:
        self.start_run(until_ns)
        return self.collect_run()

    def inject(self, region_index: int,
               messages: List[BoundaryMessage]) -> None:
        self._conn.send(("inject", (region_index, messages)))

    def finish(self) -> FinishResult:
        self._conn.send(("finish", None))
        return cast(FinishResult, self._conn.recv())

    def close(self) -> None:
        try:
            self._conn.send(("close", None))
            self._conn.close()
        except (BrokenPipeError, OSError):  # pragma: no cover - racing exit
            pass
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()


class ShardedFleet:
    """Drive a ring of regions across ``shards`` workers.

    Region ``r`` is owned by shard ``r % shards`` — a fixed, declared
    assignment, so two runs with the same specs and shard count do the
    same work in the same order.
    """

    def __init__(self, specs: List[RegionSpec], shards: int = 1,
                 transport: str = "inline") -> None:
        if not specs:
            raise ConfigurationError("a fleet needs at least one region")
        if sorted(spec.index for spec in specs) != list(range(len(specs))):
            raise ConfigurationError(
                "region specs must cover indices 0..n-1 exactly once")
        if any(spec.n_regions != len(specs) for spec in specs):
            raise ConfigurationError(
                "every spec's n_regions must equal the spec count")
        quanta = {spec.boundary_delay_ns for spec in specs}
        if len(quanta) != 1:
            raise ConfigurationError(
                f"boundary delays differ across regions ({sorted(quanta)}); "
                "the barrier quantum must be fleet-wide")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1: {shards}")
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORTS}: {transport!r}")
        self.specs = sorted(specs, key=lambda spec: spec.index)
        self.shards = min(shards, len(specs))
        self.transport = transport
        self.quantum_ns = self.specs[0].boundary_delay_ns
        #: region index -> shard index
        self.assignment = {spec.index: spec.index % self.shards
                           for spec in self.specs}

    def _spawn(self) -> List[Union[_InlineShard, _ForkShard]]:
        by_shard: List[List[RegionSpec]] = [[] for _ in range(self.shards)]
        for spec in self.specs:
            by_shard[self.assignment[spec.index]].append(spec)
        factory = (_InlineShard if self.transport == "inline"
                   else _ForkShard)
        return [factory(specs) for specs in by_shard]

    def run(self, duration_ns: int) -> FleetResult:
        """Run the fleet for ``duration_ns`` and collect the result."""
        if duration_ns < 1:
            raise ConfigurationError(
                f"duration must be >= 1 ns: {duration_ns}")
        started = time.perf_counter()
        workers = self._spawn()
        quantum = self.quantum_ns
        horizon = 0
        rounds = 0
        messages_exchanged = 0
        try:
            while horizon < duration_ns:
                horizon = min(horizon + quantum, duration_ns)
                rounds += 1
                # Phase 1: every shard runs its window.  All windows are
                # started before any result is collected: fork shards
                # genuinely overlap, inline shards do the work at collect
                # time in the same shard order as before.
                for worker in workers:
                    worker.start_run(horizon)
                results = [worker.collect_run() for worker in workers]
                # Phase 2: the barrier exchange, in canonical order.
                pending: Dict[int, List[BoundaryMessage]] = {}
                for messages in results:
                    for message in messages:
                        pending.setdefault(message.dst_region,
                                           []).append(message)
                for region_index in sorted(pending):
                    ordered = injection_order(pending[region_index])
                    messages_exchanged += len(ordered)
                    workers[self.assignment[region_index]].inject(
                        region_index, ordered)
            collected: FinishResult = {}
            for worker in workers:
                collected.update(worker.finish())
        finally:
            for worker in workers:
                worker.close()

        digests = [collected[spec.index][0] for spec in self.specs]
        counters: Dict[str, int] = {}
        for spec in self.specs:
            for key, value in collected[spec.index][1].items():
                counters[key] = counters.get(key, 0) + value
        return FleetResult(
            n_regions=len(self.specs), shards=self.shards,
            transport=self.transport, duration_ns=duration_ns,
            quantum_ns=quantum, rounds=rounds,
            messages_exchanged=messages_exchanged, digests=digests,
            counters=counters,
            wall_seconds=time.perf_counter() - started)


def run_fleet(specs: List[RegionSpec], duration_ns: int, shards: int = 1,
              transport: str = "inline") -> FleetResult:
    """One-shot convenience wrapper around :class:`ShardedFleet`."""
    return ShardedFleet(specs, shards=shards, transport=transport).run(
        duration_ns)
