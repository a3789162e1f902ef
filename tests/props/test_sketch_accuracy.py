"""Property suite: sketch accuracy contracts on the live pipeline.

Every trace runs end to end — generated update TPPs executed by a real
TCPU against a real MMU, decoded from the resulting SRAM image — and is
scored against an exact dict ground truth:

- count-min estimates are **overestimate-only** (a hard per-query
  invariant: counters only ever add), and exceed the truth by more
  than ``ε·N`` with frequency at most ``δ`` (the (ε, δ) contract,
  checked in aggregate over the seeded sweep);
- distinct-count estimates leave the HLL four-sigma budget on a
  Chebyshev-bounded tail of traces, and sit near one sigma in
  aggregate;
- heavy-hitter candidate tables recover every flow whose claim slot
  was not stolen first.

The seeded sweep covers the acceptance bar (>= 200 traces); the
hypothesis properties re-run the same oracle on arbitrary seeds, so a
failure shrinks to — and prints — the smallest offending trace seed.
"""

import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.sketch import (
    CountMinDecoder,
    DistinctCountDecoder,
    HeavyHitterDecoder,
    image_from_mmu,
)
from repro.asic.metadata import PacketMetadata
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.telemetry import (
    CountMinLayout,
    DistinctCountLayout,
    HeavyHitterLayout,
    build_count_min_update,
    build_distinct_update,
    build_heavy_hitter_update,
    read_sketch,
)

#: Acceptance bar: >= 200 randomized traces through the live pipeline.
N_TRACES = 220

#: The sweep's count-min geometry: eps = e/8 ~ 0.34, delta = e^-3 ~ 0.05.
CM = CountMinLayout(base_word=0, width=8, depth=3)
#: Register file for the distinct-count sweep: sigma = 1.04/sqrt(32).
HLL = DistinctCountLayout(base_word=64, m=32)


class FakeQueue:
    occupancy_bytes = 500


class FakePort:
    index = 0
    queue = FakeQueue()


def make_ctx():
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=1000)


def make_tcpu():
    """Sketch SRAM starts zeroed (MMU default), nothing else bound —
    update programs touch only SRAM."""
    return TCPU(MMU(name="sketch-acc"), max_instructions=8,
                race_mode="off")


def execute(tcpu, update):
    report = tcpu.execute(update.build(), make_ctx())
    assert report.ok, f"sketch update faulted: {report.fault}"


def random_trace(seed, max_keys=24, max_count=60):
    """Seeded flow trace: key -> exact count (the dict ground truth)."""
    rng = random.Random(seed)
    n_keys = rng.randint(2, max_keys)
    keys = rng.sample(range(1, 1_000_000), n_keys)
    return {key: rng.randint(1, max_count) for key in keys}


def run_count_min_trace(seed):
    """Play one trace through update TPPs; return (truth, image).

    Each key's whole count rides one update program (``delta=count``) —
    the weighted-update form of the sketch, bit-identical in SRAM to
    ``count`` unit updates and linear in keys instead of packets.
    """
    truth = random_trace(seed)
    tcpu = make_tcpu()
    for key, count in truth.items():
        execute(tcpu, build_count_min_update(CM, key, delta=count))
    return truth, image_from_mmu(tcpu.mmu, CM.words())


def count_min_violations(truth, image):
    """Per-trace oracle: overestimate-only is hard, the εN bound is
    counted (its failure probability is what δ budgets)."""
    decoder = CountMinDecoder(CM)
    total = sum(truth.values())
    assert decoder.row_sum(image) == total
    over_bound = 0
    for key, exact in truth.items():
        estimate = decoder.raw_estimate(image, key)
        assert estimate >= exact, (
            f"underestimate for key {key} (trace seed in test id): "
            f"{estimate} < {exact}")
        if estimate - exact > CM.error_bound(total):
            over_bound += 1
    return over_bound, len(truth)


class TestCountMinSweep:
    def test_bounds_hold_over_seeded_traces(self):
        """The (ε, δ) acceptance sweep: overestimate-only everywhere,
        εN exceeded with aggregate frequency <= δ."""
        queries = 0
        violations = 0
        for seed in range(N_TRACES):
            truth, image = run_count_min_trace(seed)
            over, n = count_min_violations(truth, image)
            violations += over
            queries += n
        assert queries >= 200 * 2
        assert violations <= CM.delta * queries, (
            f"εN bound violated on {violations}/{queries} queries; "
            f"budget is δ={CM.delta:.4f}")

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_overestimate_only_property(self, seed):
        """Shrinkable form: any failure minimizes and prints ``seed``."""
        truth, image = run_count_min_trace(seed)
        decoder = CountMinDecoder(CM)
        for key, exact in truth.items():
            estimate = decoder.raw_estimate(image, key)
            assert estimate >= exact, (
                f"trace seed {seed}: key {key} underestimated "
                f"({estimate} < {exact})")

    def test_estimate_carries_the_contract(self):
        truth, image = run_count_min_trace(7)
        total = sum(truth.values())
        key = next(iter(truth))
        est = CountMinDecoder(CM).estimate(image, key)
        assert est.error_bound == CM.epsilon * total
        assert est.confidence == 1.0 - CM.delta


def run_distinct_trace(seed, max_cardinality=400):
    rng = random.Random(seed)
    cardinality = rng.randint(1, max_cardinality)
    keys = rng.sample(range(1, 10_000_000), cardinality)
    tcpu = make_tcpu()
    for key in keys:
        execute(tcpu, build_distinct_update(HLL, key))
    # Duplicates must be no-ops (MAX is idempotent).
    for key in keys[:3]:
        execute(tcpu, build_distinct_update(HLL, key))
    return cardinality, image_from_mmu(tcpu.mmu, HLL.words())


class TestDistinctCountSweep:
    """HLL's analysis gives the estimator's spread, a standard deviation
    of σ·n (σ = 1.04/√m), not a worst case: a trace beyond k·σ·n is a
    tail event, at most 1/k² of traces by Chebyshev (1/16 at k = 4).
    Measured over trace seeds 0–399 at ``max_cardinality=150``, one
    trace in 400 leaves the 4σ budget: seed 64, 254.5 for 122 keys,
    two of its 32 registers at 8 and two at 7.  So the budget is
    asserted as a tail count over a sweep, like count-min's δ."""

    #: Traces in the (slower: one TPP per distinct key) HLL sweep.
    N_HLL_TRACES = 60
    #: Per-trace tolerance: four sigma relative, plus a small absolute
    #: floor so tiny cardinalities (where "relative" degenerates) pass.
    SIGMAS = 4.0
    ABS_SLACK = 3.0
    #: The property's sweep: this many consecutive trace seeds, of which
    #: at most ``PROPERTY_TAIL`` may leave the budget.  Chebyshev's 1/16
    #: expects 0.5 of 8; at the measured 1/400 a third is a ~1e-6 event.
    PROPERTY_TRACES = 8
    PROPERTY_TAIL = 2

    def _relative_error(self, cardinality, image):
        estimate = DistinctCountDecoder(HLL).estimate(image)
        return abs(estimate - cardinality) / max(cardinality, 1)

    def _outside_budget(self, cardinality, error):
        budget = (self.SIGMAS * HLL.standard_error * cardinality
                  + self.ABS_SLACK)
        return error * max(cardinality, 1) > budget

    def test_estimates_within_standard_error_budget(self):
        relative_errors = []
        outside = []
        for seed in range(self.N_HLL_TRACES):
            cardinality, image = run_distinct_trace(seed)
            error = self._relative_error(cardinality, image)
            relative_errors.append(error)
            if self._outside_budget(cardinality, error):
                outside.append(seed)
        assert len(outside) <= self.N_HLL_TRACES / self.SIGMAS ** 2, (
            f"trace seeds {outside} exceed {self.SIGMAS:.0f} sigma")
        mean = sum(relative_errors) / len(relative_errors)
        # In aggregate the estimator must behave like its analysis
        # says: mean relative error around one sigma, not four.
        assert mean <= 1.5 * HLL.standard_error, (
            f"mean relative error {mean:.3f} exceeds "
            f"1.5*sigma = {1.5 * HLL.standard_error:.3f}")

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**9))
    @example(seed=64)
    def test_bounded_error_property(self, seed):
        """Of ``PROPERTY_TRACES`` consecutive trace seeds from ``seed``,
        at most ``PROPERTY_TAIL`` leave the 4σ budget."""
        outside = []
        for trace_seed in range(seed, seed + self.PROPERTY_TRACES):
            cardinality, image = run_distinct_trace(
                trace_seed, max_cardinality=150)
            if self._outside_budget(
                    cardinality, self._relative_error(cardinality, image)):
                outside.append(trace_seed)
        assert len(outside) <= self.PROPERTY_TAIL, (
            f"trace seeds {outside} exceed {self.SIGMAS:.0f} sigma")


class TestHeavyHitterRecovery:
    LAYOUT = HeavyHitterLayout(base_word=128, width=16, depth=3,
                               n_slots=8)

    def test_unstolen_candidates_are_recovered_exactly(self):
        rng = random.Random(11)
        truth = {}
        tcpu = make_tcpu()
        claimed = {}
        for key in rng.sample(range(1, 100000), 12):
            count = rng.randint(1, 40)
            truth[key] = count
            execute(tcpu, build_heavy_hitter_update(self.LAYOUT, key,
                                                    delta=count))
            claimed.setdefault(self.LAYOUT.slot_word(key), key)
        image = image_from_mmu(tcpu.mmu, self.LAYOUT.words())
        decoder = HeavyHitterDecoder(self.LAYOUT)
        # Exactly the slot winners are reported...
        assert set(decoder.candidates(image)) == set(claimed.values())
        # ...and every reported estimate honors overestimate-only.
        for hitter in decoder.report(image):
            assert hitter.estimate >= truth[hitter.key]

    def test_probe_tpp_snapshot_matches_control_plane(self):
        """The data-plane read path (probe TPPs) and the control-plane
        shortcut must produce the same image, hence same estimates."""
        tcpu = make_tcpu()
        for key, count in [(42, 9), (7, 4)]:
            execute(tcpu, build_heavy_hitter_update(self.LAYOUT, key,
                                                    delta=count))
        words = list(self.LAYOUT.words())
        via_probes = read_sketch(tcpu, words, make_ctx)
        assert via_probes == image_from_mmu(tcpu.mmu, words)
        report = HeavyHitterDecoder(self.LAYOUT).report(via_probes)
        assert [(h.key, h.estimate) for h in report] == [(42, 9), (7, 4)]