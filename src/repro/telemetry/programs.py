"""Generated, verifier-certified TPP update programs for sketches.

The ISA has no hash instruction, so a sketch update is *specialized per
flow key*: the end host evaluates the layout's hash family
(:mod:`repro.telemetry.hashing`), bakes the resulting ``Sram:WordN``
operands into the program text, assembles it, and runs it through
:func:`repro.core.verifier.verify_program` so the certificate pins the
per-word dataflow classes the batched TCPU relies on:

- count-min rows are the canonical additive RMW idiom
  (``ADD [Packet:r],[Sram:WordW]`` + ``STORE``) and classify
  ``accumulate`` — the prefix-scan half of the vector lane;
- heavy-hitter candidate claims are a single ``CSTORE`` per slot and
  classify ``claim`` — the linearizable first-match-wins protocol, the
  lane's other half (these two shapes are *all* it vectorizes);
- distinct-count register updates are a MAX RMW and classify ``mixed``
  — the batch engine demotes them to the safe lane
  (``batch_demotions`` reason ``write_dataflow``), by design.

Because the key is baked into the bytes, updates for different keys are
different programs (distinct ``program_key``); the TCPU batches per
program, which is exactly the per-flow granularity a sketch wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.assembler import AssembledProgram, assemble
from repro.core.memory_map import MemoryMap
from repro.core.verifier import VerifiedProgram, verify_program
from repro.telemetry.layout import (
    CountMinLayout,
    DistinctCountLayout,
    HeavyHitterLayout,
)


@dataclass(frozen=True)
class SketchUpdate:
    """One certified, key-specialized sketch update program."""

    key: int
    source: str
    program: AssembledProgram
    certificate: VerifiedProgram
    #: SRAM words the update writes, in touch order.
    words: Tuple[int, ...]

    @property
    def dataflow(self) -> Dict[int, str]:
        """Certificate-pinned ``word -> class`` map for written words."""
        return dict(self.certificate.sram_dataflow)

    def build(self, task_id: Optional[int] = None, seq: int = 0):
        """Fresh TPP section (new packet-memory copy) for one packet."""
        tid = self.certificate.task_id if task_id is None else task_id
        return self.program.build(task_id=tid, seq=seq)


def _certify(source: str, memory_map: Optional[MemoryMap],
             task_id: int) -> Tuple[AssembledProgram, VerifiedProgram]:
    mmap = memory_map if memory_map else MemoryMap.shared_standard()
    program = assemble(source, memory_map=mmap)
    result = verify_program(
        program, memory_map=mmap,
        max_instructions=program.n_instructions, task_id=task_id)
    return program, result.raise_on_error().certificate


def _rmw(op: str, packet_word: int, sram_word: int) -> List[str]:
    """The two-instruction SRAM read-modify-write idiom."""
    return [f"{op} [Packet:{packet_word}],[Sram:Word{sram_word}]",
            f"STORE [Sram:Word{sram_word}],[Packet:{packet_word}]"]


def build_count_min_update(layout: CountMinLayout, key: int,
                           delta: int = 1, task_id: int = 0,
                           memory_map: Optional[MemoryMap] = None,
                           ) -> SketchUpdate:
    """Update program incrementing ``key``'s counter in every row.

    ``2 * depth`` instructions, one additive RMW per row; every touched
    word classifies ``accumulate`` so a batch of same-key updates rides
    the vector lane.
    """
    words = layout.words_for(key)
    lines = [f"; count-min update: key={key} delta={delta} "
             f"sketch={layout.name}",
             ".mode absolute",
             f".memory {layout.depth}"]
    lines += [f".data {row} {delta}" for row in range(layout.depth)]
    for row, word in enumerate(words):
        lines += _rmw("ADD", row, word)
    program, cert = _certify("\n".join(lines) + "\n", memory_map, task_id)
    return SketchUpdate(key=key, source=program.source, program=program,
                        certificate=cert, words=words)


def build_heavy_hitter_update(layout: HeavyHitterLayout, key: int,
                              delta: int = 1, task_id: int = 0,
                              memory_map: Optional[MemoryMap] = None,
                              ) -> SketchUpdate:
    """Count-min increment plus a CSTORE claim of the candidate slot.

    The claim writes ``key`` into its hash-chosen slot iff the slot
    still holds ``layout.unclaimed_value`` — first flow to hash there
    wins, later packets of the same flow find their own key (and still
    leave the slot intact: CSTORE only writes on match).  ``key`` must
    therefore differ from the unclaimed sentinel.
    """
    if key == layout.unclaimed_value:
        raise ValueError(
            f"key {key} collides with the unclaimed-slot sentinel "
            f"{layout.unclaimed_value}")
    depth = layout.depth
    counter_words = layout.countmin.words_for(key)
    slot = layout.slot_word(key)
    lines = [f"; heavy-hitter update: key={key} delta={delta} "
             f"sketch={layout.name}",
             ".mode absolute",
             f".memory {depth + 2}"]
    lines += [f".data {row} {delta}" for row in range(depth)]
    lines += [f".data {depth} {layout.unclaimed_value}",
              f".data {depth + 1} {key}"]
    for row, word in enumerate(counter_words):
        lines += _rmw("ADD", row, word)
    lines.append(f"CSTORE [Sram:Word{slot}],"
                 f"[Packet:{depth}],[Packet:{depth + 1}]")
    program, cert = _certify("\n".join(lines) + "\n", memory_map, task_id)
    return SketchUpdate(key=key, source=program.source, program=program,
                        certificate=cert, words=counter_words + (slot,))


def build_distinct_update(layout: DistinctCountLayout, key: int,
                          task_id: int = 0,
                          memory_map: Optional[MemoryMap] = None,
                          ) -> SketchUpdate:
    """HLL register update: ``reg = max(reg, rank(key))`` via MAX RMW.

    MAX is not additive, so the word classifies ``mixed`` and the batch
    engine demotes these updates to the safe scalar lane
    (``write_dataflow``) — still bit-identical, just not vectorized.
    """
    bucket, rank = layout.bucket_and_rank(key)
    word = layout.word(bucket)
    lines = [f"; distinct-count update: key={key} bucket={bucket} "
             f"rank={rank} sketch={layout.name}",
             ".mode absolute",
             ".memory 1",
             f".data 0 {rank}"]
    lines += _rmw("MAX", 0, word)
    program, cert = _certify("\n".join(lines) + "\n", memory_map, task_id)
    return SketchUpdate(key=key, source=program.source, program=program,
                        certificate=cert, words=(word,))


# --------------------------------------------------------------------- #
# Probe (read) side
# --------------------------------------------------------------------- #

#: Default probe chunking: the paper's per-packet instruction budget.
PROBE_CHUNK = 5


def build_probe(words: Sequence[int], task_id: int = 0,
                memory_map: Optional[MemoryMap] = None,
                chunk: int = PROBE_CHUNK,
                ) -> List[Tuple[AssembledProgram, Tuple[int, ...]]]:
    """LOAD-only probe programs that snapshot ``words`` of sketch SRAM.

    Returns ``(program, words)`` pairs, each program at most ``chunk``
    instructions (a whole sketch rarely fits one TPP's instruction
    budget, so the snapshot is striped across several probe packets —
    same pattern as the ndb/netsight collectors in §2.4).
    """
    probes: List[Tuple[AssembledProgram, Tuple[int, ...]]] = []
    mmap = memory_map if memory_map else MemoryMap.shared_standard()
    for base in range(0, len(words), chunk):
        part = tuple(words[base:base + chunk])
        lines = [f"; sketch probe: words {part}",
                 ".mode absolute",
                 f".memory {len(part)}"]
        lines += [f"LOAD [Sram:Word{w}],[Packet:{i}]"
                  for i, w in enumerate(part)]
        program = assemble("\n".join(lines) + "\n", memory_map=mmap)
        verify_program(program, memory_map=mmap,
                       max_instructions=len(part),
                       task_id=task_id).raise_on_error()
        probes.append((program, part))
    return probes


def read_sketch(tcpu, words: Sequence[int], make_ctx,
                task_id: int = 0,
                memory_map: Optional[MemoryMap] = None,
                chunk: int = PROBE_CHUNK) -> Dict[int, int]:
    """Snapshot ``words`` through probe TPPs executed on ``tcpu``.

    ``make_ctx`` builds a fresh
    :class:`~repro.core.mmu.ExecutionContext` per probe packet.  This is
    the data-plane read path the decoders consume; the control-plane
    shortcut is :func:`repro.analysis.sketch.image_from_mmu`.
    """
    mmap = memory_map if memory_map else getattr(
        tcpu.mmu, "memory_map", None)
    image: Dict[int, int] = {}
    for program, part in build_probe(words, task_id=task_id,
                                     memory_map=mmap, chunk=chunk):
        section = program.build(task_id=task_id)
        report = tcpu.execute(section, make_ctx())
        if not report.ok:
            raise RuntimeError(
                f"sketch probe faulted: {report.fault.name} "
                f"(words {part})")
        image.update(zip(part, section.words()))
    return image
