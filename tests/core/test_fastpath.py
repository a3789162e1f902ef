"""Program cache, pre-resolved accessors, and fast-path plumbing.

The differential suite (``test_fastpath_differential.py``) proves the
compiled closures compute the same thing as the interpreter; this file
covers the machinery around them: LRU bookkeeping, fingerprint keying,
invalidation on MMU layout changes and in-flight corruption, and the
counter surfaces (switch stats, trace record, report table).
"""

import pytest

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.fastpath import DEFAULT_PROGRAM_CACHE_CAPACITY, ProgramCache
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.tpp import TPPSection
from repro.sim.trace import snapshot


class FakeQueue:
    occupancy_bytes = 500


class FakePort:
    index = 0
    queue = FakeQueue()


def make_mmu(switch_id=7):
    mmu = MMU(name="fake")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: switch_id)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    return mmu


def make_ctx():
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=1000)


class TestProgramCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProgramCache(0)

    def test_hit_miss_counting(self):
        cache = ProgramCache(4)
        assert cache.get(b"a") is None
        cache.put(b"a", ("steps-a",))
        assert cache.get(b"a") == ("steps-a",)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_past_capacity(self):
        cache = ProgramCache(2)
        cache.put(b"a", (1,))
        cache.put(b"b", (2,))
        cache.get(b"a")          # refresh a: b is now the LRU
        cache.put(b"c", (3,))    # evicts b
        assert cache.evictions == 1
        assert cache.size == 2
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None and cache.get(b"c") is not None

    def test_clear_counts_invalidations(self):
        cache = ProgramCache(2)
        cache.put(b"a", (1,))
        cache.clear()
        assert cache.size == 0
        assert cache.invalidations == 1

    def test_same_length_different_bytes_are_distinct(self):
        """Fingerprint collision safety: equal-length programs with
        different instruction bytes must occupy distinct entries."""
        first = assemble("PUSH [Switch:SwitchID]").build()
        second = assemble("PUSH [Queue:QueueSize]").build()
        assert len(first.program_key) == len(second.program_key)
        assert first.program_key != second.program_key
        cache = ProgramCache(4)
        cache.put(first.program_key, ("first",))
        cache.put(second.program_key, ("second",))
        assert cache.get(first.program_key) == ("first",)
        assert cache.get(second.program_key) == ("second",)


class TestProgramKey:
    def test_key_covers_mode_and_word_size(self):
        base = assemble("LOAD [Switch:SwitchID], [Packet:0]").build()
        absolute = assemble(
            ".mode absolute\nLOAD [Switch:SwitchID], [Packet:0]").build()
        wide = assemble(
            ".word 8\nLOAD [Switch:SwitchID], [Packet:0]").build()
        keys = {base.program_key, absolute.program_key, wide.program_key}
        assert len(keys) == 3

    def test_key_is_memoized_and_invalidated(self):
        tpp = assemble("PUSH [Switch:SwitchID]").build()
        key = tpp.program_key
        assert tpp.program_key is key  # memoized, not recomputed
        tpp.invalidate_caches()
        assert tpp.program_key == key  # recomputed to the same bytes
        assert tpp._program_key is not None


class TestTCPUCache:
    def test_cache_warm_after_first_execution(self):
        tcpu = TCPU(make_mmu(), compile=True)
        program = assemble("PUSH [Switch:SwitchID]")
        for _ in range(3):
            report = tcpu.execute(program.build(), make_ctx())
            assert report.ok
        stats = snapshot(tcpu.cache)
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["size"] == 1

    def test_eviction_when_many_programs(self):
        tcpu = TCPU(make_mmu(), compile=True)
        tcpu.cache = ProgramCache(2)
        sources = ["PUSH [Switch:SwitchID]",
                   "PUSH [Queue:QueueSize]",
                   "LOAD [Switch:SwitchID], [Packet:0]"]
        for source in sources:
            assert tcpu.execute(assemble(source).build(), make_ctx()).ok
        stats = snapshot(tcpu.cache)
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        # The evicted (oldest) program recompiles and still runs.
        assert tcpu.execute(assemble(sources[0]).build(), make_ctx()).ok

    def test_bind_reader_invalidates_compiled_programs(self):
        """Re-binding a statistic must not leave closures holding the old
        accessor: the next execution observes the new value."""
        mmu = make_mmu(switch_id=7)
        tcpu = TCPU(mmu, compile=True)
        program = assemble("PUSH [Switch:SwitchID]")
        tpp = program.build()
        assert tcpu.execute(tpp, make_ctx()).ok
        assert tpp.read_word(0) == 7

        version = mmu.layout_version
        mmu.bind_reader("Switch:SwitchID", lambda ctx: 42)
        assert mmu.layout_version > version

        tpp = program.build()
        assert tcpu.execute(tpp, make_ctx()).ok
        assert tpp.read_word(0) == 42
        assert tcpu.cache.invalidations >= 1

    def test_compile_false_forces_interpreter(self):
        tcpu = TCPU(make_mmu(), compile=False)
        assert not tcpu.compile_enabled
        report = tcpu.execute(assemble("PUSH [Switch:SwitchID]").build(),
                              make_ctx())
        assert report.ok
        assert tcpu.cache.misses == 0

    def test_compile_enabled_attribute_switches_live_tcpu(self):
        """Flipping the attribute on a built TCPU (how the engine
        equivalence tests reach into a finished network) takes effect
        on the next execution."""
        tcpu = TCPU(make_mmu())
        assert tcpu.compile_enabled
        program = assemble("PUSH [Switch:SwitchID]")
        assert tcpu.execute(program.build(), make_ctx()).ok
        assert tcpu.cache.misses == 1
        tcpu.compile_enabled = False
        tpp = program.build()
        assert tcpu.execute(tpp, make_ctx()).ok
        assert tpp.read_word(0) == 7
        stats = snapshot(tcpu.cache)
        assert (stats["hits"], stats["misses"]) == (0, 1)  # cache untouched

    def test_default_capacity(self):
        tcpu = TCPU(make_mmu())
        assert tcpu.cache.capacity == DEFAULT_PROGRAM_CACHE_CAPACITY


class TestWireCacheConsistency:
    def test_encode_reflects_compiled_writes(self):
        """Compiled closures write packet memory in place:
        serialize-after-execute sees the new bytes."""
        tcpu = TCPU(make_mmu(), compile=True)
        program = assemble("PUSH [Switch:SwitchID]")
        tpp = program.build()
        before = tpp.encode()
        assert tcpu.execute(tpp, make_ctx()).ok
        after = tpp.encode()
        assert after != before
        assert tpp.read_word(0) == 7

    def test_encode_stable_when_nothing_written(self):
        tpp = assemble("PUSH [Switch:SwitchID]").build()
        wire = tpp.encode()
        assert tpp.encode() == wire
        assert TPPSection.decode(wire).encode() == wire
