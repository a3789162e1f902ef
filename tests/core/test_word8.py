"""8-byte-word TPPs end to end (§3.3's "8-byte values" sizing)."""

import pytest

from repro import quickstart_network
from repro.core.assembler import assemble


@pytest.fixture
def busy_net():
    """A network that has moved more than 2^32 ... bytes is too slow to
    simulate, so instead: a network whose clock exceeds 2^32 ns, which
    32-bit reads would truncate."""
    net = quickstart_network(n_switches=2)
    # Jump the clock past the 32-bit nanosecond wrap (~4.29 s).
    net.sim.run(until_ns=5_000_000_000)
    return net


class TestWideWords:
    def test_clock_truncates_in_32bit_reads(self, busy_net):
        net = busy_net
        results = []
        program = assemble("PUSH [Switch:ClockLo]")
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac,
                                on_response=results.append)
        net.run(until_seconds=net.sim.now_seconds + 0.01)
        low_word = results[0].per_hop_words()[0][0]
        assert low_word < 1 << 32
        assert low_word != net.sim.now_ns  # truncated: high bits lost

    def test_hi_lo_pair_recovers_full_clock(self, busy_net):
        net = busy_net
        results = []
        program = assemble("PUSH [Switch:ClockLo]\nPUSH [Switch:ClockHi]")
        send_time = net.sim.now_ns
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac,
                                on_response=results.append)
        net.run(until_seconds=net.sim.now_seconds + 0.01)
        lo, hi = results[0].per_hop_words()[0]
        clock = (hi << 32) | lo
        assert clock > 5_000_000_000
        assert abs(clock - send_time) < 10_000_000

    def test_8byte_words_drop_the_pair_dance(self, busy_net):
        """With .word 8 a single PUSH would still read the 32-bit lo
        register; but packet arithmetic and memory are 64-bit wide, so a
        program can combine them in-packet."""
        net = busy_net
        results = []
        # hi and lo each land in their own 8-byte word.
        program = assemble("""
            .word 8
            PUSH [Switch:ClockHi]
            PUSH [Switch:ClockLo]
        """)
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac,
                                on_response=results.append)
        net.run(until_seconds=net.sim.now_seconds + 0.01)
        hi, lo = results[0].per_hop_words()[0]
        assert (hi << 32 | lo) > 5_000_000_000

    def test_word8_memory_sizing(self):
        program = assemble(".word 8\nPUSH [Queue:QueueSize]", hops=4)
        assert program.word_size == 8
        assert program.perhop_len_bytes == 8
        assert program.memory_bytes == 32

    def test_word8_wire_round_trip(self):
        from repro.core.tpp import TPPSection
        program = assemble(".word 8\nPUSH [Queue:QueueSize]", hops=2)
        tpp = program.build()
        tpp.write_word(0, 0x1234_5678_9ABC_DEF0)
        decoded = TPPSection.decode(tpp.encode())
        assert decoded.read_word(0) == 0x1234_5678_9ABC_DEF0

    def test_word8_arithmetic_no_32bit_wrap(self, busy_net):
        """ADD of two large values wraps at 2^64, not 2^32."""
        net = busy_net
        results = []
        program = assemble(
            """
            .word 8
            .memory 1
            .data 0 $Big
            ADD [Packet:0], [Switch:ClockLo]
            """,
            symbols={"Big": (1 << 33)})
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac,
                                on_response=results.append)
        net.run(until_seconds=net.sim.now_seconds + 0.01)
        value = results[0].word(0)
        assert value > (1 << 33)  # no truncation at 2^32

    def test_word8_words_match_read_word(self):
        """``words()`` decodes 8-byte words big-endian like ``read_word``
        and drops the 4-byte tail a 4-aligned memory may leave."""
        program = assemble(".word 8\nPUSH [Queue:QueueSize]", hops=3)
        tpp = program.build()
        values = [0x1234_5678_9ABC_DEF0, (1 << 64) - 1, 1]
        for index, value in enumerate(values):
            tpp.write_word(8 * index, value)
        assert tpp.words() == values
        del tpp.memory[20:]                 # 2 whole words + 4 ragged bytes
        assert tpp.words() == values[:2] == [tpp.read_word(0),
                                             tpp.read_word(8)]
