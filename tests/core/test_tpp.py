"""TPP section: Figure 4's wire format and packet-memory semantics."""

import pytest

from repro.core.exceptions import FaultCode, TPPEncodingError
from repro.core.isa import Instruction, Opcode
from repro.core.tpp import (
    FLAG_FAULT,
    TPP_HEADER_BYTES,
    AddressingMode,
    TPPSection,
)


def make_tpp(**kwargs) -> TPPSection:
    defaults = dict(
        instructions=[Instruction(Opcode.PUSH, addr=0xB000)],
        memory=bytearray(16),
    )
    defaults.update(kwargs)
    return TPPSection(**defaults)


class TestConstruction:
    def test_header_is_12_bytes(self):
        assert TPP_HEADER_BYTES == 12

    def test_word_size_validated(self):
        with pytest.raises(TPPEncodingError):
            make_tpp(word_size=3)

    def test_memory_must_be_aligned(self):
        with pytest.raises(TPPEncodingError):
            make_tpp(memory=bytearray(7))

    def test_perhop_must_be_aligned(self):
        with pytest.raises(TPPEncodingError):
            make_tpp(perhop_len_bytes=6)

    def test_tpp_length(self):
        tpp = make_tpp(memory=bytearray(20))
        assert tpp.tpp_length_bytes == 12 + 4 + 20


class TestMemoryAccess:
    def test_word_round_trip(self):
        tpp = make_tpp()
        tpp.write_word(4, 0xDEADBEEF)
        assert tpp.read_word(4) == 0xDEADBEEF

    def test_write_masks_to_word_width(self):
        tpp = make_tpp()
        tpp.write_word(0, 0x1_0000_0001)
        assert tpp.read_word(0) == 1

    def test_negative_values_wrap_two_complement(self):
        tpp = make_tpp()
        tpp.write_word(0, -1)
        assert tpp.read_word(0) == 0xFFFF_FFFF

    def test_big_endian_layout(self):
        tpp = make_tpp()
        tpp.write_word(0, 0x01020304)
        assert bytes(tpp.memory[:4]) == b"\x01\x02\x03\x04"

    def test_eight_byte_words(self):
        tpp = make_tpp(word_size=8)
        tpp.write_word(0, 0x1122334455667788)
        assert tpp.read_word(0) == 0x1122334455667788

    def test_out_of_bounds_read_raises(self):
        tpp = make_tpp(memory=bytearray(8))
        with pytest.raises(IndexError):
            tpp.read_word(8)

    def test_straddling_end_raises(self):
        tpp = make_tpp(memory=bytearray(8))
        with pytest.raises(IndexError):
            tpp.read_word(6)

    def test_negative_offset_raises(self):
        with pytest.raises(IndexError):
            make_tpp().read_word(-4)

    def test_words_view(self):
        tpp = make_tpp(memory=bytearray(12))
        tpp.write_word(0, 1)
        tpp.write_word(4, 2)
        tpp.write_word(8, 3)
        assert tpp.words() == [1, 2, 3]

    @pytest.mark.parametrize("word_size", [4, 8])
    @pytest.mark.parametrize("n_bytes", [0, 4, 8, 12, 16, 20, 36, 40])
    def test_words_equals_the_read_word_loop(self, word_size, n_bytes):
        """The bulk decode is the per-word loop it replaced: every
        complete word, the ragged tail (a hostile 8-byte word size over
        4-aligned memory) dropped, nothing for empty memory."""
        memory = bytearray((37 * i + 11) % 256 for i in range(n_bytes))
        tpp = make_tpp(memory=memory, word_size=word_size)
        usable = n_bytes - n_bytes % word_size
        assert tpp.words() == [tpp.read_word(i)
                               for i in range(0, usable, word_size)]
        assert len(tpp.words()) == n_bytes // word_size

    def test_words_is_a_snapshot(self):
        tpp = make_tpp(memory=bytearray(8))
        before = tpp.words()
        tpp.write_word(4, 7)
        assert before == [0, 0]
        assert tpp.words() == [0, 7]


class TestFlags:
    def test_done_flag(self):
        tpp = make_tpp()
        assert not tpp.done
        tpp.mark_done()
        assert tpp.done

    def test_fault_recording(self):
        tpp = make_tpp()
        assert tpp.fault == FaultCode.NONE
        tpp.record_fault(FaultCode.STACK_OVERFLOW)
        assert tpp.fault == FaultCode.STACK_OVERFLOW

    def test_first_fault_wins(self):
        tpp = make_tpp()
        tpp.record_fault(FaultCode.STACK_OVERFLOW)
        tpp.record_fault(FaultCode.BAD_ADDRESS)
        assert tpp.fault == FaultCode.STACK_OVERFLOW


class TestHopsExecuted:
    def test_stack_mode_uses_sp(self):
        tpp = make_tpp(mode=AddressingMode.STACK, perhop_len_bytes=8)
        tpp.sp = 24
        assert tpp.hops_executed() == 3

    def test_hop_mode_uses_counter(self):
        tpp = make_tpp(mode=AddressingMode.HOP, perhop_len_bytes=8)
        tpp.hop = 4
        assert tpp.hops_executed() == 4

    def test_no_perhop_means_zero(self):
        tpp = make_tpp(mode=AddressingMode.STACK, perhop_len_bytes=0)
        tpp.sp = 12
        assert tpp.hops_executed() == 0


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        tpp = make_tpp(mode=AddressingMode.HOP, perhop_len_bytes=8,
                       task_id=3, seq=42)
        tpp.hop = 2
        tpp.write_word(0, 0xAABBCCDD)
        decoded = TPPSection.decode(tpp.encode())
        assert decoded.instructions == tpp.instructions
        assert decoded.memory == tpp.memory
        assert decoded.mode == AddressingMode.HOP
        assert decoded.hop == 2
        assert decoded.perhop_len_bytes == 8
        assert decoded.task_id == 3
        assert decoded.seq == 42

    def test_encoded_length_matches_header_field(self):
        tpp = make_tpp()
        assert len(tpp.encode()) == tpp.tpp_length_bytes

    def test_decode_rejects_truncated(self):
        with pytest.raises(TPPEncodingError):
            TPPSection.decode(b"\x00" * 4)

    def test_decode_rejects_length_mismatch(self):
        raw = bytearray(make_tpp().encode())
        raw.append(0)  # one stray byte
        with pytest.raises(TPPEncodingError):
            TPPSection.decode(bytes(raw))

    def test_decode_rejects_bad_mode(self):
        raw = bytearray(make_tpp().encode())
        raw[4] = 9  # mode byte
        with pytest.raises(TPPEncodingError):
            TPPSection.decode(bytes(raw))

    def test_flags_survive_round_trip(self):
        tpp = make_tpp()
        tpp.record_fault(FaultCode.WRITE_PROTECTED)
        tpp.mark_done()
        decoded = TPPSection.decode(tpp.encode())
        assert decoded.fault == FaultCode.WRITE_PROTECTED
        assert decoded.done

    @pytest.mark.parametrize("code", range(max(FaultCode) + 1, 16))
    def test_decode_rejects_a_fault_stamp_naming_no_code(self, code):
        # Regression: readers of such a section (``.fault``, ``.ok``)
        # raised ``ValueError`` from inside response callbacks.
        raw = bytearray(make_tpp().encode())
        raw[9] = FLAG_FAULT | code << 4  # flags byte
        with pytest.raises(TPPEncodingError):
            TPPSection.decode(bytes(raw))

    def test_a_stray_code_nibble_does_not_corrupt_a_later_fault(self):
        raw = bytearray(make_tpp().encode())
        raw[9] = int(FaultCode.BAD_INSTRUCTION) << 4  # no FLAG_FAULT
        decoded = TPPSection.decode(bytes(raw))
        assert decoded.fault == FaultCode.NONE
        decoded.record_fault(FaultCode.BAD_ADDRESS)
        assert decoded.fault == FaultCode.BAD_ADDRESS

    def test_constructor_drops_a_stamp_naming_no_code(self):
        tpp = make_tpp(flags=FLAG_FAULT | 0xF0)
        assert tpp.fault == FaultCode.NONE
        assert TPPSection.decode(tpp.encode()).flags == tpp.flags


class TestCopy:
    def test_copy_isolates_memory(self):
        tpp = make_tpp()
        clone = tpp.copy()
        clone.write_word(0, 7)
        assert tpp.read_word(0) == 0

    def test_copy_preserves_header_fields(self):
        tpp = make_tpp(mode=AddressingMode.ABSOLUTE, seq=9, task_id=2)
        clone = tpp.copy()
        assert clone.mode == AddressingMode.ABSOLUTE
        assert clone.seq == 9
        assert clone.task_id == 2
