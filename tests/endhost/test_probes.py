"""Periodic TPP probing."""

from repro import units
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.probes import PeriodicProber


def make_prober(net, interval_ns, results, **kwargs):
    h0, h1 = net.host("h0"), net.host("h1")
    client = TPPEndpoint(h0)
    TPPEndpoint(h1)
    program = assemble("PUSH [Switch:SwitchID]")
    return PeriodicProber(client, program, interval_ns, results.append,
                          dst_mac=h1.mac, **kwargs)


class TestPeriodicProber:
    def test_probes_at_interval(self, linear_net):
        results = []
        prober = make_prober(linear_net, units.milliseconds(10), results)
        prober.start()
        linear_net.run(until_seconds=0.105)
        assert prober.probes_sent == 10
        assert prober.results_received == 10
        assert len(results) == 10

    def test_first_delay_override(self, linear_net):
        results = []
        prober = make_prober(linear_net, units.milliseconds(10), results)
        prober.start(first_delay_ns=1)
        linear_net.run(until_seconds=0.005)
        assert prober.probes_sent == 1

    def test_stop_halts_probing(self, linear_net):
        results = []
        prober = make_prober(linear_net, units.milliseconds(10), results)
        prober.start()
        linear_net.run(until_seconds=0.05)
        prober.stop()
        count = prober.probes_sent
        linear_net.run(until_seconds=0.2)
        assert prober.probes_sent == count

    def test_results_carry_samples(self, linear_net):
        results = []
        prober = make_prober(linear_net, units.milliseconds(10), results)
        prober.start()
        linear_net.run(until_seconds=0.05)
        assert all(r.hops() == 3 for r in results)

    def test_jitter_decorrelates(self, linear_net):
        results = []
        prober = make_prober(linear_net, units.milliseconds(10), results,
                             jitter_fraction=0.3)
        prober.start()
        linear_net.run(until_seconds=0.2)
        times = [r.time_ns for r in results]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) > 3  # intervals actually vary

    def test_jitter_applies_without_explicit_rng(self, linear_net):
        """Regression: jitter used to be silently dropped (fixed
        intervals) when no RNG was passed; the prober now always draws
        from a named stream of the simulator's seeded family."""
        results = []
        prober = make_prober(linear_net, units.milliseconds(10), results,
                             jitter_fraction=0.3)
        prober.start()
        linear_net.run(until_seconds=0.2)
        times = [r.time_ns for r in results]
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) > 3  # intervals vary: jitter is really applied

    def test_default_rng_deterministic_per_seed(self):
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import TopologyBuilder

        def run_once(seed):
            net = TopologyBuilder(seed=seed).linear(2)
            install_shortest_path_routes(net)
            results = []
            prober = make_prober(net, units.milliseconds(10), results,
                                 jitter_fraction=0.3)
            prober.start()
            net.run(until_seconds=0.1)
            return [r.time_ns for r in results]

        assert run_once(5) == run_once(5)
        assert run_once(5) != run_once(6)

    def test_jitter_deterministic_with_seed(self):
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import TopologyBuilder

        def run_once():
            net = TopologyBuilder().linear(2)
            install_shortest_path_routes(net)
            results = []
            prober = make_prober(net, units.milliseconds(10), results,
                                 jitter_fraction=0.3)
            prober.start()
            net.run(until_seconds=0.1)
            return [r.time_ns for r in results]

        assert run_once() == run_once()
