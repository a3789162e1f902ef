#!/usr/bin/env python
"""Per-flow heavy hitters from switch scratch SRAM (paper §2.1, §3.2).

The micro-burst monitor (``microburst_monitor.py``) reads one counter
per queue: it can tell you *when* a queue filled, never *which flows*
filled it.  This example upgrades that pipeline to a heavy-hitter
sketch — count-min counters plus a CSTORE-claimed candidate table —
hosted in the same 1024-word scratch SRAM, updated by per-flow TPPs the
verifier certifies and the race table admits, and decoded on the end
host with explicit (ε, δ) error bounds.

Run:  python examples/sketch_heavy_hitters.py
"""

import random

from repro.analysis.sketch import CountMinDecoder, HeavyHitterDecoder
from repro.apps.microburst import HeavyHitterMonitor
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU
from repro.core.tcpu import TCPU
from repro.telemetry import (
    HeavyHitterLayout,
    build_heavy_hitter_update,
    disjoint_keys,
)

# --- a sketch block in the congested switch's scratch SRAM --------------
layout = HeavyHitterLayout(base_word=16, width=16, depth=3, n_slots=8)
print(f"layout: {layout.depth}x{layout.width} counters + "
      f"{layout.n_slots} claim slots = {layout.n_words} SRAM words")
print(f"bounds: overestimate <= {layout.epsilon:.3f}*N "
      f"with p >= {1 - layout.delta:.3f}")

memory_map = MemoryMap.standard()
mmu = MMU(memory_map)
monitor = HeavyHitterMonitor(mmu, layout)

# --- traffic: two elephants hidden in a crowd of mice -------------------
# The elephants open the burst (so their CSTOREs claim candidate slots
# first — exactly the protocol's first-match-wins semantics); the mice
# trickle in afterwards in random order.
rng = random.Random(2013)
truth = {0xA1: 140, 0xB7: 90}                          # the elephants
for key, packets in truth.items():
    monitor.observe(key, packets)
mice = {}
for _ in range(40):                                    # the mice
    key = rng.randrange(1, 5000)
    mice[key] = mice.get(key, 0) + rng.randrange(1, 4)
for key, packets in sorted(mice.items(), key=lambda kv: rng.random()):
    monitor.observe(key, packets)
    truth[key] = truth.get(key, 0) + packets
total = sum(truth.values())

# --- decode through probe TPPs ------------------------------------------
print(f"\nobserved {monitor.packets_observed} packets, "
      f"{len(truth)} flows, {monitor.race_conflicts} race diagnostics "
      "recorded (colliding counters are count-min's job, not a bug)")
print("top flows (estimate vs truth):")
for hitter in monitor.report(5):
    print(f"  key 0x{hitter.key:04X}: est {hitter.estimate:4d} "
          f"(true {truth[hitter.key]:4d}, "
          f"err <= {hitter.error_bound:.1f} "
          f"w.p. {hitter.confidence:.2f})")

elephants = {h.key for h in monitor.report(2)}
assert elephants == {0xA1, 0xB7}, elephants
for hitter in monitor.report():
    assert hitter.estimate >= truth[hitter.key]  # overestimate-only

# --- enforce-mode admission: provably disjoint updaters only ------------
# Under race_mode="enforce" the TCPU refuses any certificate that
# introduces a write-write race.  Keys whose counter cells are pairwise
# disjoint under the layout's hashes are admissible together; the next
# colliding key is refused — the race oracle, not a heuristic, decides.
fresh_map = MemoryMap.standard()
fresh_mmu = MMU(fresh_map)
layout.register(fresh_map)
layout.allocate(fresh_mmu, task_id=1)
strict = TCPU(fresh_mmu, max_instructions=7, race_mode="enforce")
fleet_keys = disjoint_keys(layout, range(1, 4096), 4)
for task, key in enumerate(fleet_keys, start=1):
    update = build_heavy_hitter_update(layout, key, task_id=task,
                                       memory_map=fresh_map)
    assert strict.trust(update.certificate), key
print(f"\nenforce mode admitted {len(fleet_keys)} disjoint updaters: "
      f"{fleet_keys}")
for key in range(1, 4096):
    if key in fleet_keys:
        continue
    update = build_heavy_hitter_update(layout, key, task_id=99,
                                       memory_map=fresh_map)
    if not strict.trust(update.certificate):
        print(f"colliding updater for key {key} refused "
              f"(certificates_refused={strict.certificates_refused})")
        break

# --- the decoder is just arithmetic over the image ----------------------
decoder = HeavyHitterDecoder(layout)
image = monitor.snapshot()
n_estimate = sum(image[w] for w in
                 range(layout.base_word, layout.base_word + layout.width))
assert n_estimate == total == monitor.packets_observed
print(f"\nrow-0 sum recovers the stream total: N = {n_estimate}")
print("candidate slots:",
      [hex(k) for k in decoder.candidates(image)][:8])

# A point query for any key, heavy or not, carries the same contract.
mouse = min(truth, key=lambda key: (truth[key], key))
point = CountMinDecoder(layout.countmin).estimate(image, mouse)
print(f"point query for mouse key 0x{mouse:04X}: est {point.estimate} "
      f"(true {truth[mouse]}, err <= {point.error_bound:.1f} "
      f"w.p. {point.confidence:.2f})")
assert point.estimate >= truth[mouse]
