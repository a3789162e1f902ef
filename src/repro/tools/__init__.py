"""Command-line tools.

- ``python -m repro.tools.tppasm`` — assemble/disassemble TPP programs
  and inspect the network-wide memory map, lint programs, and check a
  set of programs for SRAM races (``lint`` / ``racecheck``).

The paper's experiments themselves are ``benchmarks/test_*.py``.
"""
