"""Assembler for the paper's x86-like TPP assembly language.

Source syntax (everything case-insensitive except ``$symbols``)::

    ; --- directives -----------------------------------------------------
    .mode stack            ; stack | hop | absolute   (default: stack)
    .word 4                ; word size in bytes: 4 or 8 (default: 4)
    .hops 7                ; hops to preallocate memory for (default: 8)
    .memory 16             ; override: packet memory words (before pool)
    .perhop 3              ; override: words per hop (hop mode)
    .data 2 0x1234         ; initialize packet-memory word 2

    ; --- instructions: operands in their ISA row's ``syntax`` order ---
    PUSH [Queue:QueueSize]
    LOAD [Switch:SwitchID], [Packet:Hop[1]]
    CSTORE [Sram:Word0], [Packet:0], [Packet:1]
    CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
    ADD [Packet:2], [Queue:QueueSize]

Operand kinds:

- ``[Namespace:Statistic]`` — a switch virtual address resolved against the
  network-wide :class:`~repro.core.memory_map.MemoryMap` at compile time
  (exactly the paper's "[Queue:QueueSize] will be compiled to a virtual
  memory address (say) 0xb000").  A raw ``[0xB000]`` is also accepted.
- ``[Packet:N]`` / ``[Packet:Hop[N]]`` — packet-memory word offset ``N``
  (both spellings encode identically; the TPP header's addressing mode
  decides whether it is hop-relative at run time).
- immediates — ``0x1F``, ``42``, or ``$name`` resolved from the ``symbols``
  mapping.  Immediates are materialized into a *literal pool* at the end of
  packet memory ("packet memory can contain initialized values to load data
  into the ASIC", Figure 4), because instructions themselves have no room
  for 32-bit constants in their 4-byte encoding.

Memory sizing: in stack mode the assembler computes the per-hop footprint
(one word per PUSH) and preallocates ``hops`` hops' worth, matching §2.1:
"the end-host preallocates enough packet memory to store queue sizes".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.exceptions import AssemblerError
from repro.core.isa import ISA, Instruction, Opcode
from repro.core.memory_map import MemoryMap
from repro.core.tpp import AddressingMode, TPPSection, program_key_of

DEFAULT_HOPS = 8

_PACKET_OPERAND = re.compile(
    r"^\[\s*packet\s*:\s*(?:hop\s*\[\s*(\d+)\s*\]|(\d+))\s*\]$",
    re.IGNORECASE)
_SWITCH_OPERAND = re.compile(r"^\[\s*([^\[\]]+?)\s*\]$")
_SYMBOL = re.compile(r"^\$([A-Za-z_][\w\-]*)$")

_MODES = {
    "stack": AddressingMode.STACK,
    "hop": AddressingMode.HOP,
    "absolute": AddressingMode.ABSOLUTE,
}


@dataclass(frozen=True)
class _Operand:
    """A parsed operand before encoding."""

    kind: str            # "switch" | "packet" | "immediate"
    value: int           # vaddr | word offset | literal value
    symbol: Optional[str] = None  # lowercased $name an immediate came from


@dataclass
class AssembledProgram:
    """Output of :func:`assemble`; a reusable template for TPP sections."""

    instructions: List[Instruction]
    initial_memory: bytes
    mode: AddressingMode
    word_size: int
    perhop_len_bytes: int
    memory_words: int
    pool_base_word: int
    source: str = ""
    symbols: Dict[str, int] = field(default_factory=dict)
    #: Hop budget the memory was sized for (the ``.hops`` directive or
    #: the ``hops=`` argument); the verifier's default admission horizon.
    hops: int = 0
    #: Source line of each instruction, for verifier diagnostics.
    lines: List[int] = field(default_factory=list)
    #: Program fingerprint stamped onto every built section so the TCPU's
    #: compile-once cache never re-encodes the instruction block per
    #: probe.  Computed lazily; instructions are fixed after assembly.
    _program_key: Any = field(default=None, repr=False, compare=False)
    #: Memoized default-argument :meth:`verify` result.
    _verification: Any = field(default=None, repr=False, compare=False)
    #: Per lowercased ``$symbol`` the source references: the packet-memory
    #: words it initialises, or ``None`` when it shapes the program.
    _bindings: Dict[str, Optional[List[int]]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    @property
    def instruction_bytes(self) -> int:
        """Wire bytes of the instruction block (paper: 4 B/instruction)."""
        return 4 * len(self.instructions)

    @property
    def memory_bytes(self) -> int:
        """Wire bytes of packet memory, literal pool included."""
        return len(self.initial_memory)

    def build(self, payload=None, task_id: int = 0,
              seq: int = 0) -> TPPSection:
        """Instantiate a fresh TPP section (new packet-memory copy)."""
        section = TPPSection(
            instructions=list(self.instructions),
            memory=bytearray(self.initial_memory),
            mode=self.mode,
            word_size=self.word_size,
            hop_or_sp=0,
            perhop_len_bytes=self.perhop_len_bytes,
            task_id=task_id,
            seq=seq,
            payload=payload,
        )
        section._program_key = self.program_key
        return section

    @property
    def program_key(self) -> bytes:
        """The fingerprint every section built from this program carries."""
        key = self._program_key
        if key is None:
            key = self._program_key = program_key_of(
                self.instructions, self.mode, self.word_size)
        return key

    def rebind(self, symbols: Dict[str, int]) -> "AssembledProgram":
        """This program with new values for some of its ``$symbols``.

        Equal, field for field, to assembling the source again with the
        updated symbols, but only the packet-memory words those symbols
        initialise are rewritten: the instruction list and the program
        key are shared, a verification result is not inherited.  A name
        the source never references, or one that sizes the program
        (``.hops`` / ``.memory`` / ``.perhop`` / a ``.data`` index),
        raises :class:`AssemblerError`.
        """
        values = {name.lower(): value for name, value in symbols.items()}
        scratch = TPPSection(instructions=[], word_size=self.word_size,
                             memory=bytearray(self.initial_memory))
        for name, value in values.items():
            words = self._bindings.get(name)
            if words is None:
                raise AssemblerError(
                    f"cannot rebind ${name}: "
                    + ("it shapes the program" if name in self._bindings
                       else "the source never references it"))
            for index in words:
                scratch.write_word(index * self.word_size, value)
        return replace(
            self, initial_memory=bytes(scratch.memory), _verification=None,
            _program_key=self.program_key,
            symbols={spelling: values.get(spelling.lower(), old)
                     for spelling, old in self.symbols.items()})

    def verify(self, memory_map: Optional[MemoryMap] = None,
               **kwargs: Any) -> Any:
        """Statically verify this program (see :mod:`repro.core.verifier`).

        The hop budget defaults to what the program was assembled for.
        The default-argument result is memoized — instructions and
        initial memory are fixed after assembly, so the analysis cannot
        change.  Returns a
        :class:`~repro.core.verifier.VerificationResult`.
        """
        # Local import: the assembler is imported by the verifier's
        # callers everywhere; keeping the verifier import lazy avoids an
        # import cycle and keeps plain assembly import-light.
        from repro.core.verifier import verify_program

        if memory_map is None and not kwargs:
            if self._verification is None:
                self._verification = verify_program(self)
            return self._verification
        return verify_program(self, memory_map=memory_map, **kwargs)


def assemble(source: str, memory_map: Optional[MemoryMap] = None,
             symbols: Optional[Dict[str, int]] = None,
             hops: int = DEFAULT_HOPS,
             verify: bool = False) -> AssembledProgram:
    """Compile TPP assembly into an :class:`AssembledProgram`.

    With ``verify=True`` the program is additionally run through the
    static verifier (:mod:`repro.core.verifier`) against the same memory
    map and hop budget it was assembled for;
    :class:`~repro.core.verifier.VerificationError` is raised if any
    error-severity diagnostic is found.  The (clean) result — including
    its fast-path certificate — is memoized on the program and returned
    by :meth:`AssembledProgram.verify`.
    """
    program = _Assembler(memory_map, symbols, hops).assemble(source)
    if verify:
        result = program.verify(memory_map=memory_map)
        result.raise_on_error()
        if memory_map is not None:
            program._verification = result
    return program


class _Assembler:
    """Single-use assembler state machine."""

    def __init__(self, memory_map: Optional[MemoryMap],
                 symbols: Optional[Dict[str, int]], hops: int) -> None:
        self.memory_map = memory_map if memory_map else MemoryMap.standard()
        self.symbols = {k.lower(): v for k, v in (symbols or {}).items()}
        self.hops = hops
        self.mode = AddressingMode.STACK
        self.word_size = 4
        self.memory_words: Optional[int] = None
        self.perhop_words: Optional[int] = None
        self.data_directives: List[Tuple[int, _Operand]] = []
        self.parsed: List[Tuple[Opcode, List[_Operand], int, str]] = []
        self.used_symbols: Dict[str, int] = {}
        self.shape_symbols: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def assemble(self, source: str) -> AssembledProgram:
        for number, raw_line in enumerate(source.splitlines(), start=1):
            line = raw_line.split(";")[0].split("#")[0].strip()
            if not line:
                continue
            if line.startswith("."):
                self._directive(line, number, raw_line)
            else:
                self._instruction(line, number, raw_line)
        return self._emit(source)

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #

    def _directive(self, line: str, number: int, raw: str) -> None:
        parts = line.split()
        name = parts[0].lower()
        try:
            if name == ".mode":
                self.mode = _MODES[parts[1].lower()]
            elif name == ".word":
                self.word_size = int(parts[1])
                if self.word_size not in (4, 8):
                    raise AssemblerError("word size must be 4 or 8",
                                         number, raw)
            elif name == ".hops":
                self.hops = self._int(parts[1], number, raw)
            elif name == ".memory":
                self.memory_words = self._int(parts[1], number, raw)
            elif name == ".perhop":
                self.perhop_words = self._int(parts[1], number, raw)
            elif name == ".data":
                index = self._int(parts[1], number, raw)
                value = self._immediate(parts[2], number, raw)
                self.data_directives.append((index, value))
            else:
                raise AssemblerError(f"unknown directive {name!r}",
                                     number, raw)
        except (IndexError, KeyError, ValueError) as exc:
            raise AssemblerError(f"malformed directive: {exc}",
                                 number, raw) from exc

    def _instruction(self, line: str, number: int, raw: str) -> None:
        mnemonic, _, rest = line.partition(" ")
        try:
            opcode = Opcode[mnemonic.upper()]
        except KeyError as exc:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}",
                                 number, raw) from exc
        row = ISA[opcode]
        operands: List[_Operand] = []
        for text in _split_operands(rest):
            # A pair (always the last operand) spells its second word as
            # the first plus one, so word 256 may follow word 255.
            after_255 = (row.syntax[-1:] == ("pair",)
                         and len(operands) == row.arity - 1
                         and operands[-1] == _Operand("packet", 0xFF))
            operands.append(self._operand(text.strip(), number, raw,
                                          0x100 if after_255 else 0xFF))
        if len(operands) != row.arity:
            raise AssemblerError(
                f"{opcode.name} takes {row.arity} operand(s), "
                f"got {len(operands)}", number, raw)
        self.parsed.append((opcode, operands, number, raw))

    def _operand(self, text: str, number: int, raw: str,
                 limit: int = 0xFF) -> _Operand:
        if not text:
            raise AssemblerError("empty operand", number, raw)
        match = _PACKET_OPERAND.match(text)
        if match:
            offset = int(match.group(1) or match.group(2))
            if offset > limit:
                raise AssemblerError(
                    f"packet offset {offset} exceeds 255", number, raw)
            return _Operand("packet", offset)
        if _SYMBOL.match(text):
            return self._immediate(text, number, raw)
        bracketed = _SWITCH_OPERAND.match(text)
        if bracketed:
            inner = bracketed.group(1)
            try:
                if inner.lower().startswith("0x"):
                    return _Operand("switch", int(inner, 16))
                return _Operand("switch", self.memory_map.resolve(inner))
            except KeyError as exc:
                raise AssemblerError(str(exc), number, raw) from exc
        try:
            return self._immediate(text, number, raw)
        except AssemblerError:
            raise AssemblerError(f"cannot parse operand {text!r}",
                                 number, raw)

    def _immediate(self, text: str, number: int, raw: str) -> _Operand:
        symbol = _SYMBOL.match(text)
        if symbol:
            key = symbol.group(1).lower()
            if key not in self.symbols:
                raise AssemblerError(f"undefined symbol ${symbol.group(1)}",
                                     number, raw)
            self.used_symbols[symbol.group(1)] = self.symbols[key]
            return _Operand("immediate", self.symbols[key], key)
        try:
            return _Operand("immediate", int(text, 0))
        except ValueError as exc:
            raise AssemblerError(f"bad integer {text!r}", number, raw) from exc

    def _int(self, text: str, number: int, raw: str) -> int:
        """A directive argument that sizes the program."""
        operand = self._immediate(text, number, raw)
        if operand.symbol is not None:
            self.shape_symbols.add(operand.symbol)
        return operand.value

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def _emit(self, source: str) -> AssembledProgram:
        pushes = sum(1 for opcode, *_ in self.parsed
                     if ISA[opcode].packet == "push")
        # Highest packet word any operand touches (a pair spells both).
        max_packet_word = max(
            (operand.value for _, operands, _, _ in self.parsed
             for operand in operands if operand.kind == "packet"),
            default=-1)

        if self.perhop_words is not None:
            perhop_words = self.perhop_words
        elif self.mode == AddressingMode.HOP:
            perhop_words = max_packet_word + 1
        else:
            perhop_words = pushes

        if self.memory_words is not None:
            memory_words = self.memory_words
        elif self.mode == AddressingMode.STACK:
            memory_words = max(perhop_words * self.hops,
                               max_packet_word + 1)
        elif self.mode == AddressingMode.HOP:
            memory_words = perhop_words * self.hops
        else:
            memory_words = max_packet_word + 1 if self.parsed else 0

        pool: List[_Operand] = []
        pool_base = memory_words
        instructions: List[Instruction] = []
        lines: List[int] = []
        for opcode, operands, number, raw in self.parsed:
            instructions.append(
                self._encode(opcode, operands, pool, pool_base, number, raw))
            lines.append(number)

        total_words = memory_words + len(pool)
        memory = bytearray(total_words * self.word_size)
        program = AssembledProgram(
            instructions=instructions,
            initial_memory=b"",
            mode=self.mode,
            word_size=self.word_size,
            perhop_len_bytes=perhop_words * self.word_size,
            memory_words=memory_words,
            pool_base_word=pool_base,
            source=source,
            symbols=dict(self.used_symbols),
            hops=self.hops,
            lines=lines,
        )
        # Fill initial memory through a scratch TPPSection for bounds and
        # masking behaviour identical to run time.
        scratch = TPPSection(instructions=[], memory=memory,
                             word_size=self.word_size)
        for index, _ in self.data_directives:
            if index >= memory_words:
                raise AssemblerError(
                    f".data index {index} outside the {memory_words} "
                    f"declared memory words")
        owner: Dict[int, Optional[str]] = {}  # word -> symbol written last
        for index, operand in self.data_directives + list(
                enumerate(pool, start=pool_base)):
            scratch.write_word(index * self.word_size, operand.value)
            owner[index] = operand.symbol
        program.initial_memory = bytes(memory)
        words: Dict[str, List[int]] = {
            spelling.lower(): [] for spelling in self.used_symbols}
        for index, symbol in owner.items():
            if symbol is not None:
                words[symbol].append(index)
        program._bindings = {
            name: None if name in self.shape_symbols else indices
            for name, indices in words.items()}
        return program

    def _encode(self, opcode: Opcode, operands: List[_Operand],
                pool: List[_Operand], pool_base: int,
                number: int, raw: str) -> Instruction:
        addr = offset = 0
        for position, kind in enumerate(ISA[opcode].syntax):
            operand = operands[position]
            if kind == "switch":
                addr = self._expect(operand, "switch", number, raw).value
            elif kind == "packet":
                offset = self._expect(operand, "packet", number, raw).value
            else:  # a pair is the last operand and spells two
                offset = self._pair(opcode, position, operand,
                                    operands[position + 1], pool,
                                    pool_base, number, raw)
        return Instruction(opcode, addr=addr, offset=offset)

    @staticmethod
    def _pair(opcode: Opcode, position: int, first: _Operand,
              second: _Operand, pool: List[_Operand], pool_base: int,
              number: int, raw: str) -> int:
        """Offset of a pair: consecutive packet words or pooled immediates."""
        if first.kind == "packet" and second.kind == "packet":
            if second.value != first.value + 1:
                raise AssemblerError(
                    f"{opcode.name} packet operands must be "
                    f"consecutive words, got {first.value} and "
                    f"{second.value}", number, raw)
            return first.value
        if first.kind == "immediate" and second.kind == "immediate":
            offset = pool_base + len(pool)
            pool.extend([first, second])
            if offset + 1 > 0xFF:
                raise AssemblerError(
                    "literal pool exceeds addressable packet memory",
                    number, raw)
            return offset
        raise AssemblerError(
            f"{opcode.name} operands {position + 1} and {position + 2} "
            f"must both be packet references or both immediates",
            number, raw)

    @staticmethod
    def _expect(operand: _Operand, kind: str, number: int,
                raw: str) -> _Operand:
        if operand.kind != kind:
            raise AssemblerError(
                f"expected a {kind} operand, got {operand.kind}",
                number, raw)
        return operand


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside brackets."""
    if not text.strip():
        return []
    parts: List[str] = []
    depth = 0
    current = []
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [part for part in (p.strip() for p in parts) if part]
