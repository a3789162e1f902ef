"""The control-plane agent: SRAM partitioning across network tasks.

"We rely on a control-plane agent to partition switch SRAM and isolate
concurrently executing network tasks.  For instance, if end-hosts implement
both RCP and ndb, the agent would allocate a non-overlapping set of SRAM
addresses to RCP and ndb." (§3.2)

The agent manages a fleet of switches uniformly: an allocation reserves the
*same* virtual addresses on every switch (the paper's assumption that
addresses are identical network-wide), registers task mnemonics such as
``Link:RCP-RateRegister`` into the shared memory map, and can initialize
the allocated registers — e.g. RCP's footnote 3: "a control plane program
initializes each link's fair share rate to its capacity".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.asic.switch import TPPSwitch
from repro.core.memory_map import (
    LINK_SCRATCH_BASE,
    LINK_SCRATCH_SLOTS,
    SRAM_BASE,
    SRAM_WORDS,
    MemoryMap,
)
from repro.errors import ConfigurationError


@dataclass
class TaskAllocation:
    """Everything handed to one network task."""

    task_id: int
    name: str
    sram_words: Dict[str, int] = field(default_factory=dict)
    link_slots: Dict[str, int] = field(default_factory=dict)


class ControlPlaneAgent:
    """Allocates scratch memory uniformly across a set of switches."""

    def __init__(self, switches: Sequence[TPPSwitch],
                 memory_map: Optional[MemoryMap] = None,
                 enforce_isolation: bool = False) -> None:
        self.switches = list(switches)
        self.memory_map = memory_map if memory_map else MemoryMap.standard()
        self._task_ids = itertools.count(1)
        self._next_sram_word = 0
        self._next_link_slot = 0
        self._allocations: Dict[str, TaskAllocation] = {}
        if enforce_isolation:
            for switch in self.switches:
                switch.mmu.enforce_sram_protection = True

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def create_task(self, name: str) -> TaskAllocation:
        """Register a task; returns its (initially empty) allocation."""
        if name in self._allocations:
            raise ConfigurationError(f"task {name!r} already exists")
        allocation = TaskAllocation(task_id=next(self._task_ids), name=name)
        self._allocations[name] = allocation
        return allocation

    def allocate_sram(self, task_name: str, symbol: str,
                      n_words: int = 1) -> int:
        """Reserve ``n_words`` of SRAM on every switch; returns the vaddr
        of the first word.  The symbol becomes resolvable as
        ``Sram:<symbol>`` is not created — callers use the returned vaddr
        or the allocation object."""
        allocation = self._allocations[task_name]
        start = self._next_sram_word
        if start + n_words > SRAM_WORDS:
            raise ConfigurationError(
                f"out of SRAM: need {n_words}, "
                f"{SRAM_WORDS - start} words free")
        for switch in self.switches:
            switch.mmu.allocate_sram(start, n_words, allocation.task_id)
        self._next_sram_word += n_words
        allocation.sram_words[symbol] = start
        return SRAM_BASE + start

    def allocate_link_register(self, task_name: str, symbol: str,
                               mnemonic: Optional[str] = None) -> int:
        """Reserve one per-port scratch slot network-wide.

        ``mnemonic`` (e.g. ``"Link:RCP-RateRegister"``) is registered in the
        shared memory map so assembly programs can name the register.
        Returns the virtual address.
        """
        allocation = self._allocations[task_name]
        slot = self._next_link_slot
        if slot >= LINK_SCRATCH_SLOTS:
            raise ConfigurationError("out of per-port scratch registers")
        self._next_link_slot += 1
        allocation.link_slots[symbol] = slot
        vaddr = LINK_SCRATCH_BASE + slot
        if mnemonic is not None:
            self.memory_map.register_symbol(mnemonic, vaddr)
        return vaddr

    # ------------------------------------------------------------------ #
    # Direct register initialization (control-plane writes)
    # ------------------------------------------------------------------ #

    def initialize_link_register(self, vaddr: int,
                                 value_for_port: Callable[[TPPSwitch, int],
                                                          int]) -> None:
        """Write an initial value into a link register on every port of
        every switch.  ``value_for_port(switch, port_index)`` supplies the
        value — RCP initializes each register to the link's capacity."""
        slot = vaddr - LINK_SCRATCH_BASE
        if not 0 <= slot < LINK_SCRATCH_SLOTS:
            raise ConfigurationError(f"{vaddr:#06x} is not a link register")
        for switch in self.switches:
            for port in switch.ports:
                switch.mmu.poke_link_scratch(
                    port.index, slot, value_for_port(switch, port.index))

