"""Property tests: event-heap determinism under schedule/cancel/compact.

Two contracts the whole reproduction rests on:

- firing order is exactly ``(time_ns, sequence)`` over the events that are
  live at fire time, no matter how schedule/cancel/compact operations
  interleave (compaction must be invisible);
- clock-advance composition: ``run(t1); run(t2)`` is indistinguishable
  from ``run(t2)`` (same firings, same order, same final clock).
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import simulator
from repro.sim.simulator import Simulator

times = st.integers(min_value=0, max_value=1_000)


def eager_compaction():
    """Low compaction thresholds, so short op lists compact on their own."""
    return mock.patch.multiple(
        simulator, COMPACT_MIN_CANCELLED=4, COMPACT_FRACTION=0.25)


#: An op is (kind, value): schedule at a time, cancel the i-th scheduled
#: event (index modulo the count so far), or compact the heap explicitly.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), times),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("compact"), st.just(0)),
    ),
    max_size=120,
)


class TestFiringOrder:
    @given(operations)
    def test_schedule_cancel_compact_preserves_order(self, ops):
        sim = Simulator()
        fired = []
        handles = []
        with eager_compaction():
            for kind, value in ops:
                if kind == "schedule":
                    tag = len(handles)
                    handles.append(sim.schedule_at(value, fired.append, tag))
                elif kind == "cancel" and handles:
                    handles[value % len(handles)].cancel()
                elif kind == "compact":
                    sim.compact()

            sim.run()

        live = [(handle.time_ns, handle.sequence, tag)
                for tag, handle in enumerate(handles)
                if not handle.cancelled]
        expected = [tag for _, _, tag in sorted(live)]
        assert fired == expected

    @given(operations)
    def test_live_accounting_is_exact(self, ops):
        sim = Simulator()
        handles = []
        with eager_compaction():
            for kind, value in ops:
                if kind == "schedule":
                    handles.append(sim.schedule_at(value, lambda: None))
                elif kind == "cancel" and handles:
                    handles[value % len(handles)].cancel()
                elif kind == "compact":
                    sim.compact()
                live = sum(1 for handle in handles if not handle.cancelled)
                assert sim.pending_events == live


class TestRunComposition:
    @given(
        st.lists(st.tuples(times, st.booleans()), max_size=40),
        times,
        times,
    )
    @settings(max_examples=60)
    def test_split_run_equals_single_run(self, schedule, t1, t2):
        """run(t1); run(t2) == run(t2) for any t1 <= t2."""
        t1, t2 = min(t1, t2), max(t1, t2) + 1

        def drive(split):
            sim = Simulator()
            fired = []
            for time_ns, cancel_it in schedule:
                event = sim.schedule(time_ns,
                                     lambda t=time_ns: fired.append(t))
                if cancel_it:
                    event.cancel()
            if split:
                sim.run(until_ns=t1)
                sim.run(until_ns=t2)
            else:
                sim.run(until_ns=t2)
            return fired, sim.now_ns, sim.pending_events

        assert drive(split=True) == drive(split=False)
