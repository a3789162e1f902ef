"""The ISA table against the spec.

``repro.core.isa.ISA`` states, once per opcode, which accesses an
instruction makes; every analysis reads it.  The two engines stay
hand-written, so this suite holds both of them to the table: for every
opcode x addressing mode x word size, the reference interpreter
(``compile=False``) and the compiled closures run one instruction
against a recording MMU and a recording packet, and

- the switch reads/writes, packet words read/written and SP movement
  they perform equal the row's projection, in the row's fault order;
- with an unmapped switch address, an out-of-bounds packet operand or
  both, each engine raises the fault that order predicts.
"""

import struct

import pytest

from repro.core import fastpath
from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.isa import ISA, Instruction, Opcode
from repro.core.mmu import ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.tpp import AddressingMode, TPPSection

MAPPED = 0x4000      # every address but UNMAPPED reads and writes
UNMAPPED = 0x0999
OFFSET = 3
MEMORY_WORDS = 64

CASES = [(opcode, mode, word) for opcode in Opcode
         for mode in AddressingMode for word in (4, 8)]


def case_id(case):
    opcode, mode, word = case
    return f"{opcode.name}-{mode.name.lower()}-w{word}"


class RecordingMMU:
    """Maps every address but :data:`UNMAPPED` to one constant word and
    logs each access; the compiled lane's accessors log the same way."""

    layout_version = 0

    def __init__(self, log, value):
        self.log = log
        self.value = value

    def read(self, vaddr, ctx):
        if vaddr == UNMAPPED:
            raise TCPUFault(FaultCode.BAD_ADDRESS, "unmapped")
        self.log.append(("switch read", vaddr))
        return self.value

    def write(self, vaddr, value, ctx):
        if vaddr == UNMAPPED:
            raise TCPUFault(FaultCode.BAD_ADDRESS, "unmapped")
        self.log.append(("switch write", vaddr))

    def reader_for(self, vaddr):
        return lambda ctx: self.read(vaddr, ctx)

    def writer_for(self, vaddr):
        return lambda ctx, value: self.write(vaddr, value, ctx)


class RecordingSection(TPPSection):
    """The interpreter's packet: logs every word access."""

    def read_word(self, byte_offset):
        value = super().read_word(byte_offset)
        self.log.append(("packet read", byte_offset))
        return value

    def write_word(self, byte_offset, value):
        super().write_word(byte_offset, value)
        self.log.append(("packet write", byte_offset))


class RecordingCodec:
    """The compiled lane's packet codec: logs every word access."""

    def __init__(self, codec, log):
        self.codec = codec
        self.log = log

    def unpack_from(self, buffer, offset):
        value = self.codec.unpack_from(buffer, offset)
        self.log.append(("packet read", offset))
        return value

    def pack_into(self, buffer, offset, value):
        self.codec.pack_into(buffer, offset, value)
        self.log.append(("packet write", offset))


def run(instruction, mode, word, compiled, counter, monkeypatch):
    """Execute one instruction; returns ``(log, report, counter delta)``."""
    log = []
    value = int.from_bytes(b"\x5a" * word, "big")
    # Every packet word holds the value every switch read returns, so
    # CSTORE's claim fires and CEXEC's fence passes.
    section = RecordingSection(
        instructions=[instruction],
        memory=bytearray(value.to_bytes(word, "big") * MEMORY_WORDS),
        mode=mode, word_size=word, hop_or_sp=counter,
        perhop_len_bytes=word)
    section.log = log
    monkeypatch.setattr(fastpath, "_WORD_STRUCTS", {
        size: RecordingCodec(struct.Struct(code), log)
        for size, code in ((4, ">I"), (8, ">Q"))})
    tcpu = TCPU(RecordingMMU(log, value), compile=compiled)
    report = tcpu.execute(section, ExecutionContext(None, None))
    return log, report, section.hop_or_sp - counter


def packet_words(row, instruction, mode, word, counter):
    """Byte offsets of the row's packet operand words."""
    base = instruction.offset * word
    return {
        None: [],
        "push": [counter],
        "pop": [counter - word],
        "word": [counter * word + base if mode == AddressingMode.HOP
                 else base],
        "pair": [base, base + word],
    }[row.packet]


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_accesses_match_the_row(case, compiled, monkeypatch):
    opcode, mode, word = case
    row = ISA[opcode]
    counter = 2 * word
    instruction = Instruction(opcode, MAPPED, OFFSET if row.packet in (
        "word", "pair") else 0)
    log, report, moved = run(instruction, mode, word, compiled, counter,
                             monkeypatch)
    words = packet_words(row, instruction, mode, word, counter)
    expected = []
    if row.reads_packet:
        expected += [("packet read", offset) for offset in words]
    if row.reads_switch:
        expected.append(("switch read", MAPPED))
    if row.writes_packet:
        expected.append(("packet write", words[0]))
    if row.writes_switch:
        expected.append(("switch write", MAPPED))
    assert report.fault == FaultCode.NONE
    assert log == expected
    hop_advance = 1 if mode == AddressingMode.HOP else 0
    assert moved == row.stack_delta * word + hop_advance


def predicted_fault(row, unmapped, out_of_bounds):
    """The first failing access in the fault order: packet reads, the
    switch read, the packet write, the switch write."""
    packet_fault = {"push": FaultCode.STACK_OVERFLOW,
                    "pop": FaultCode.STACK_UNDERFLOW}.get(
        row.packet, FaultCode.MEMORY_BOUNDS)
    order = [(row.reads_packet and out_of_bounds, packet_fault),
             (row.reads_switch and unmapped, FaultCode.BAD_ADDRESS),
             (row.writes_packet and out_of_bounds, packet_fault),
             (row.writes_switch and unmapped, FaultCode.BAD_ADDRESS)]
    return next((code for fails, code in order if fails), FaultCode.NONE)


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
@pytest.mark.parametrize("unmapped, out_of_bounds",
                         [(True, False), (False, True), (True, True)],
                         ids=["unmapped", "out-of-bounds", "both"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_fault_order(case, unmapped, out_of_bounds, compiled, monkeypatch):
    opcode, mode, word = case
    row = ISA[opcode]
    counter = 2 * word
    offset = OFFSET
    if out_of_bounds:
        # push: SP at the end; pop: SP at 0; word / pair: past the end.
        counter = {"push": MEMORY_WORDS * word, "pop": 0}.get(
            row.packet, counter)
        offset = 0xFF
    instruction = Instruction(
        opcode, UNMAPPED if unmapped else MAPPED,
        offset if row.packet in ("word", "pair") else 0)
    _, report, _ = run(instruction, mode, word, compiled, counter,
                       monkeypatch)
    assert report.fault == predicted_fault(row, unmapped, out_of_bounds)
