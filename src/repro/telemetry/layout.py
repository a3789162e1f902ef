"""SRAM layout descriptors for in-switch sketches.

A sketch is, physically, nothing but a block of the switch's scratch
SRAM (``Sram:Word0..1023``, paper §3.2.1) that writer TPPs update and
reader TPPs probe.  A layout descriptor pins everything both sides must
agree on — base word, geometry, hash seed — and knows how to

- ``register`` human-readable cell mnemonics (``Sketch:hh-r0c3``)
  through :meth:`repro.core.memory_map.MemoryMap.register_symbol`, the
  same dynamic-symbol mechanism the control-plane agent uses for RCP's
  rate registers (count-min and heavy-hitter layouts);
- ``allocate`` its word range as an owned
  :class:`~repro.core.mmu.SRAMRegion`, so the MMU's per-task SRAM
  protection (TPP007) covers sketch memory like any other allocation
  (the heavy-hitter layout, whose empty claim slots need a value);
- map a flow key to the concrete words its update program must touch
  (the hash evaluation the end host performs at program-generation
  time, see :mod:`repro.telemetry.hashing`).

Three sketch shapes:

=================== ================== ================================
layout              words              estimator
=================== ================== ================================
CountMinLayout      ``depth * width``  point frequency, overestimate-
                                       only, ``err <= εN`` w.p. ``1-δ``
HeavyHitterLayout   count-min +        candidate keys via CSTORE
                    ``n_slots``        claim slots + count-min counts
DistinctCountLayout ``m`` registers    HLL cardinality, std error
                                       ``~1.04/sqrt(m)``
=================== ================== ================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.core.memory_map import SRAM_BASE, SRAM_WORDS, MemoryMap
from repro.errors import ConfigurationError
from repro.telemetry.hashing import (
    DEFAULT_HASH_SEED,
    bucket_and_rank,
    hash_index,
    row_params,
)


def _check_block(base_word: int, n_words: int, name: str) -> None:
    if n_words <= 0:
        raise ConfigurationError(f"{name}: empty layout")
    if base_word < 0 or base_word + n_words > SRAM_WORDS:
        raise ConfigurationError(
            f"{name}: words [{base_word}, {base_word + n_words}) "
            f"outside the {SRAM_WORDS}-word scratch SRAM")


@dataclass(frozen=True)
class CountMinLayout:
    """``depth`` rows of ``width`` counters, one hash per row."""

    base_word: int
    width: int
    depth: int
    seed: int = DEFAULT_HASH_SEED
    name: str = "cm"

    def __post_init__(self) -> None:
        if self.width < 1 or self.depth < 1:
            raise ConfigurationError(
                f"{self.name}: width/depth must be >= 1 "
                f"(got {self.width}x{self.depth})")
        _check_block(self.base_word, self.n_words, self.name)

    # -- geometry ------------------------------------------------------ #

    @property
    def n_words(self) -> int:
        return self.depth * self.width

    @property
    def epsilon(self) -> float:
        """Additive error factor: estimates exceed truth by at most
        ``ε * N`` (N = total count) with probability ``>= 1 - δ``."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Per-query failure probability of the ``εN`` bound."""
        return math.exp(-self.depth)

    def error_bound(self, total: int) -> float:
        """The ``εN`` additive bound for a stream of ``total`` updates."""
        return self.epsilon * total

    # -- key -> cells --------------------------------------------------- #

    def column(self, row: int, key: int) -> int:
        a, b = row_params(self.seed, self.depth)[row]
        return hash_index(a, b, key, self.width)

    def cell_word(self, row: int, column: int) -> int:
        """Absolute SRAM word index of one counter cell."""
        return self.base_word + row * self.width + column

    def word(self, row: int, key: int) -> int:
        """Absolute SRAM word the update for ``key`` touches in ``row``."""
        return self.cell_word(row, self.column(row, key))

    def words_for(self, key: int) -> Tuple[int, ...]:
        """All counter words an update for ``key`` touches (one per
        row; rows occupy disjoint word ranges, so these never alias)."""
        return tuple(self.word(row, key) for row in range(self.depth))

    def words(self) -> range:
        """Every word of the layout, in address order."""
        return range(self.base_word, self.base_word + self.n_words)

    # -- wiring into the existing layers ------------------------------- #

    def register(self, memory_map: MemoryMap) -> int:
        """Register ``Sketch:{name}-r{row}c{col}`` mnemonics for every
        cell; returns the number of symbols registered."""
        count = 0
        for row in range(self.depth):
            for col in range(self.width):
                memory_map.register_symbol(
                    f"Sketch:{self.name}-r{row}c{col}",
                    SRAM_BASE + self.cell_word(row, col))
                count += 1
        return count

@dataclass(frozen=True)
class HeavyHitterLayout:
    """Count-min counters plus a CSTORE-claimed candidate key table.

    The candidate table is what turns "how often did key k occur?"
    (count-min answers point queries only) into "which keys are heavy?":
    every update *claims* one hash-chosen slot for its key via CSTORE —
    linearizable first-match-wins, exactly the paper's §3.2 conditional
    store — so the decoder has a bounded candidate set to run point
    queries against.  Slots hold the raw flow key; ``unclaimed_value``
    (default 0) marks an empty slot, so key 0 is reserved.
    """

    base_word: int
    width: int
    depth: int
    n_slots: int
    seed: int = DEFAULT_HASH_SEED
    name: str = "hh"
    unclaimed_value: int = 0

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ConfigurationError(
                f"{self.name}: need at least one candidate slot")
        _check_block(self.base_word, self.n_words, self.name)

    @property
    def countmin(self) -> CountMinLayout:
        """The embedded counter block (shares base, seed and name)."""
        return CountMinLayout(base_word=self.base_word, width=self.width,
                              depth=self.depth, seed=self.seed,
                              name=self.name)

    @property
    def slot_base(self) -> int:
        return self.base_word + self.depth * self.width

    @property
    def n_words(self) -> int:
        return self.depth * self.width + self.n_slots

    @property
    def epsilon(self) -> float:
        return self.countmin.epsilon

    @property
    def delta(self) -> float:
        return self.countmin.delta

    def slot_index(self, key: int) -> int:
        """Candidate slot claimed by ``key`` (row ``depth`` of the hash
        family, so it is independent of every counter row)."""
        a, b = row_params(self.seed, self.depth + 1)[self.depth]
        return hash_index(a, b, key, self.n_slots)

    def slot_word(self, key: int) -> int:
        return self.slot_base + self.slot_index(key)

    def slot_words(self) -> range:
        return range(self.slot_base, self.slot_base + self.n_slots)

    def words(self) -> range:
        return range(self.base_word, self.base_word + self.n_words)

    def register(self, memory_map: MemoryMap) -> int:
        count = self.countmin.register(memory_map)
        for slot in range(self.n_slots):
            memory_map.register_symbol(
                f"Sketch:{self.name}-slot{slot}",
                SRAM_BASE + self.slot_base + slot)
            count += 1
        return count

    def allocate(self, mmu, task_id: int):
        region = mmu.allocate_sram(self.base_word, self.n_words, task_id)
        for word in self.countmin.words():
            mmu.poke_sram(word, 0)
        for word in self.slot_words():
            mmu.poke_sram(word, self.unclaimed_value)
        return region


@dataclass(frozen=True)
class DistinctCountLayout:
    """HLL-style register file: ``m`` words, each holding the maximum
    rank observed in its bucket (updated via a MAX read-modify-write)."""

    base_word: int
    m: int
    seed: int = DEFAULT_HASH_SEED
    name: str = "hll"

    def __post_init__(self) -> None:
        if self.m <= 0 or self.m & (self.m - 1):
            raise ConfigurationError(
                f"{self.name}: register count must be a power of two, "
                f"got {self.m}")
        _check_block(self.base_word, self.m, self.name)

    @property
    def n_words(self) -> int:
        return self.m

    @property
    def standard_error(self) -> float:
        """Relative standard error of the cardinality estimate."""
        return 1.04 / math.sqrt(self.m)

    def bucket_and_rank(self, key: int) -> Tuple[int, int]:
        return bucket_and_rank(key, self.m, self.seed)

    def word(self, bucket: int) -> int:
        return self.base_word + bucket

    def words(self) -> range:
        return range(self.base_word, self.base_word + self.m)


def disjoint_keys(layout, candidates: Iterable[int],
                  n: int) -> Tuple[int, ...]:
    """Greedily pick up to ``n`` keys whose counter cells are pairwise
    disjoint under ``layout`` (a :class:`CountMinLayout` or
    :class:`HeavyHitterLayout`).

    Concurrent updaters for such keys never share a counter word, so a
    fleet of them carries no write-write race (TPP020) and an
    ``enforce``-mode :meth:`repro.core.tcpu.TCPU.trust` admits all of
    them; candidate-slot claims may still be shared (CSTORE vs CSTORE
    is the sanctioned TPP023 coordination protocol, not an error).
    """
    counters = (layout.countmin if isinstance(layout, HeavyHitterLayout)
                else layout)
    used: set = set()
    picked = []
    for key in candidates:
        cells = set(counters.words_for(key))
        if len(cells) < counters.depth or cells & used:
            continue  # self-colliding rows or clashes with a pick
        used |= cells
        picked.append(key)
        if len(picked) == n:
            break
    return tuple(picked)
