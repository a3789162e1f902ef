"""Ingress-drain batching on the switch dataplane.

Same-instant arrivals of the same TPP program must be grouped into one
:meth:`TCPU.execute_batch` call — and doing so must not change a single
observable output relative to packet-at-a-time execution.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

from repro import units
from repro.analysis.reporting import counters_table
from repro.core.assembler import assemble
from repro.core.verifier import verify_program
from repro.endhost.client import TPPEndpoint
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder


def star_net(n_hosts=4):
    builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.star(n_hosts=n_hosts)
    install_shortest_path_routes(net)
    return net


def burst_probes(net, program, n_hosts=4, on_response=None):
    """One probe from every spoke host toward h0, all at t=0, so they
    arrive at the hub switch in the same drain window."""
    target = net.host("h0")
    TPPEndpoint(target)
    for index in range(1, n_hosts):
        client = TPPEndpoint(net.host(f"h{index}"))
        client.send(program, dst_mac=target.mac, on_response=on_response)


def run_read_burst(batch, n_hosts=4, certify=False):
    """A same-ns burst of two-PUSH read probes through the hub; returns
    ``(sorted responses, tpps_executed, packets_switched, stats)``."""
    net = star_net(n_hosts)
    switch = net.switch("sw0")
    switch.tcpu.batch_enabled = batch
    program = assemble("""
        PUSH [Switch:SwitchID]
        PUSH [Queue:QueueSize]
    """, hops=2)
    if certify:
        assert switch.tcpu.trust(
            verify_program(program).raise_on_error().certificate)
    results = []
    burst_probes(net, program, n_hosts=n_hosts,
                 on_response=results.append)
    net.run(until_seconds=0.01)
    return (sorted((r.tpp.encode(), r.per_hop_words()) for r in results),
            switch.tcpu.tpps_executed, switch.packets_switched,
            switch.fastpath_stats())


class TestDrainBatching:
    def test_same_instant_probes_form_a_batch(self):
        net = star_net()
        switch = net.switch("sw0")
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        burst_probes(net, program)
        net.run(until_seconds=0.01)
        stats = switch.fastpath_stats()
        assert stats["batches_executed"] >= 1
        assert stats["batched_tpps"] >= 3
        assert switch.tcpu.tpps_executed >= 3

    def test_staggered_probes_do_not_batch(self):
        """Arrivals in different drain windows stay scalar."""
        net = star_net()
        switch = net.switch("sw0")
        target = net.host("h0")
        TPPEndpoint(target)
        client = TPPEndpoint(net.host("h1"))
        program = assemble("PUSH [Queue:QueueSize]", hops=2)

        def send_one():
            client.send(program, dst_mac=target.mac)

        for at_ns in (0, 50_000, 100_000):
            net.sim.schedule(at_ns, send_one)
        net.run(until_seconds=0.01)
        assert switch.fastpath_stats()["batches_executed"] == 0
        assert switch.tcpu.tpps_executed == 3

    def test_batching_off_produces_identical_responses(self):
        """Observable equivalence: responses, hop words, and counters
        match with the ingress batcher enabled and disabled."""
        batched, scalar = run_read_burst(True), run_read_burst(False)
        assert len(batched[0]) == 3
        assert batched[:3] == scalar[:3]

    def test_certified_read_probes_batch_on_the_safe_lane(self):
        """Eight same-ns certified read probes are deferred and run as
        one batch — packet-at-a-time (stateless reads are not a vector
        lane), byte for byte what the unbatched switch produces."""
        batched = run_read_burst(True, n_hosts=9, certify=True)
        scalar = run_read_burst(False, n_hosts=9, certify=True)
        assert len(batched[0]) == 8
        assert batched[:3] == scalar[:3]
        stats = batched[3]
        assert stats["batch_occupancy"] == {8: 1}
        assert stats["vector_tpps"] == 0
        assert stats["verified_executions"] == 8
        assert stats["batch_demotions"] == {"write_dataflow": 1}
        assert scalar[3]["batches_executed"] == 0

    def test_mixed_programs_split_into_runs(self):
        """Different program keys in one drain window never share a
        batch; every probe still executes correctly."""
        net = star_net()
        switch = net.switch("sw0")
        target = net.host("h0")
        TPPEndpoint(target)
        sources = ["PUSH [Switch:SwitchID]", "PUSH [Queue:QueueSize]",
                   "PUSH [Switch:SwitchID]"]
        results = []
        for index, source in enumerate(sources, start=1):
            client = TPPEndpoint(net.host(f"h{index}"))
            client.send(assemble(source, hops=2), dst_mac=target.mac,
                        on_response=results.append)
        net.run(until_seconds=0.01)
        assert len(results) == 3
        assert switch.tcpu.tpps_executed == 3


class TestBatchStats:
    def test_fastpath_stats_exposes_batch_counters(self):
        net = star_net()
        stats = net.switch("sw0").fastpath_stats()
        for key in ("batch_enabled", "batches_executed", "batched_tpps",
                    "vector_batches", "vector_tpps", "batch_occupancy",
                    "batch_demotions"):
            assert key in stats
        assert isinstance(stats["batch_occupancy"], dict)

    def test_batch_counters_table_renders(self):
        net = star_net()
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        burst_probes(net, program)
        net.run(until_seconds=0.01)
        switch = net.switch("sw0")
        text = counters_table(
            {name: sw.fastpath_stats() for name, sw in net.switches.items()},
            title="Batched execution")
        assert text.splitlines()[0] == "Batched execution"
        assert "sw0" in text.splitlines()[1]
        row = [line for line in text.splitlines()
               if line.startswith("batched_tpps ")]
        assert row and row[0].split("|")[1].strip() == str(
            switch.tcpu.batched_tpps)
        assert counters_table({}).splitlines()[0].strip() == "counter"


#: A same-ns burst of one certified sketch update from eight hosts
#: through a star hub; prints the hub's vector-lane count and whether
#: any module imported numpy on the way.
SKETCH_BURST_SCRIPT = textwrap.dedent("""
    import sys
    from repro import units
    from repro.endhost.client import TPPEndpoint
    from repro.net.routing import install_shortest_path_routes
    from repro.net.topology import TopologyBuilder
    from repro.telemetry import HeavyHitterLayout, build_heavy_hitter_update

    net = TopologyBuilder(rate_bps=10 * units.GIGABITS_PER_SEC).star(9)
    install_shortest_path_routes(net)
    switch = net.switch("sw0")
    layout = HeavyHitterLayout(base_word=16, width=16, depth=3, n_slots=8)
    layout.allocate(switch.mmu, 1)
    switch.tcpu.max_instructions = 2 * layout.depth + 1
    update = build_heavy_hitter_update(
        layout, 7, task_id=1, memory_map=switch.mmu.memory_map)
    assert switch.tcpu.trust(update.certificate)
    sink = net.host("h8")
    TPPEndpoint(sink, echo_probes=False)
    senders = [TPPEndpoint(net.host(f"h{i}")) for i in range(8)]

    def burst():
        for sender in senders:
            sender.send(update.program, dst_mac=sink.mac, task_id=1)

    net.sim.schedule_at(1, burst)
    net.run(until_seconds=0.001)
    print(switch.tcpu.vector_tpps, "numpy" in sys.modules)
""")


def test_vector_lane_runs_without_importing_numpy():
    """The SRAM write lane is plain Python: a sketch burst that takes it
    leaves numpy unloaded (it cost the process ~10 MB of peak RSS)."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", SKETCH_BURST_SCRIPT], capture_output=True,
        text=True, timeout=120, env=env)
    assert completed.returncode == 0, completed.stderr[-2000:]
    vector_tpps, numpy_loaded = completed.stdout.split()
    assert int(vector_tpps) > 0
    assert numpy_loaded == "False"
