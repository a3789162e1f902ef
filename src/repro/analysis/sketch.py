"""End-host decoders for sketch SRAM snapshots.

A decoder consumes an *image* — a ``word -> value`` mapping produced
either by probe TPPs (:func:`repro.telemetry.programs.read_sketch`, the
data-plane path) or by the control-plane shortcut
:func:`image_from_mmu` — and turns it into estimates with explicit
error bounds:

- :class:`CountMinDecoder` — point frequencies; overestimate-only,
  ``estimate - truth <= ε·N`` with probability ``>= 1 - δ``;
- :class:`HeavyHitterDecoder` — candidate keys recovered from the
  CSTORE claim slots, ranked by their count-min estimates;
- :class:`DistinctCountDecoder` — HLL cardinality with relative
  standard error ``~1.04/sqrt(m)`` (linear counting in the small
  range, the standard correction).

Decoders share the layout descriptor (and therefore the hash seeds)
with the program generators, so reader and writer agree bit-for-bit on
every cell address.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.telemetry.layout import (
    CountMinLayout,
    DistinctCountLayout,
    HeavyHitterLayout,
)

Image = Mapping[int, int]


def image_from_mmu(mmu, words: Iterable[int]) -> Dict[int, int]:
    """Control-plane snapshot of ``words`` via ``peek_sram`` (no TPPs).

    Handy in tests and offline analysis; the deployed read path sends
    probe TPPs instead (:func:`repro.telemetry.programs.read_sketch`).
    """
    return {word: mmu.peek_sram(word) for word in words}


@dataclass(frozen=True)
class Estimate:
    """One point-frequency answer with its accuracy contract."""

    key: int
    estimate: int
    error_bound: float    # additive: truth in [est - bound, est]
    confidence: float     # P(estimate - truth <= error_bound) >= this


class CountMinDecoder:
    """Point-frequency queries against a count-min image."""

    def __init__(self, layout: CountMinLayout) -> None:
        self.layout = layout

    def row_sum(self, image: Image, row: int = 0) -> int:
        """Total stream count ``N`` (every update adds ``delta`` to
        exactly one cell per row, so any single row sums to ``N``)."""
        lo = self.layout.cell_word(row, 0)
        return sum(image.get(w, 0) for w in range(lo, lo + self.layout.width))

    def raw_estimate(self, image: Image, key: int) -> int:
        """``min`` over the key's row counters — the CM-sketch query."""
        return min(image.get(w, 0) for w in self.layout.words_for(key))

    def estimate(self, image: Image, key: int) -> Estimate:
        total = self.row_sum(image)
        return Estimate(key=key,
                        estimate=self.raw_estimate(image, key),
                        error_bound=self.layout.error_bound(total),
                        confidence=1.0 - self.layout.delta)


@dataclass(frozen=True)
class HeavyHitter:
    """A candidate flow recovered from the claim table."""

    key: int
    estimate: int
    error_bound: float
    confidence: float


class HeavyHitterDecoder:
    """Candidate recovery + ranking for a heavy-hitter image."""

    def __init__(self, layout: HeavyHitterLayout) -> None:
        self.layout = layout
        self._countmin = CountMinDecoder(layout.countmin)

    def candidates(self, image: Image) -> Tuple[int, ...]:
        """Keys found in claimed slots (slot order, sentinel skipped)."""
        return tuple(image[w] for w in self.layout.slot_words()
                     if image.get(w, self.layout.unclaimed_value)
                     != self.layout.unclaimed_value)

    def report(self, image: Image, k: int = 0) -> List[HeavyHitter]:
        """Top candidates by estimated count (all of them if ``k<=0``).

        The claim table bounds recall: a flow whose slot was claimed
        first by a rival key is invisible (at most ``n_slots`` flows
        are ever reported), while precision is count-min's — every
        reported count overestimates by at most ``ε·N``.
        """
        total = self._countmin.row_sum(image)
        bound = self.layout.countmin.error_bound(total)
        confidence = 1.0 - self.layout.delta
        hitters = [HeavyHitter(key=key,
                               estimate=self._countmin.raw_estimate(
                                   image, key),
                               error_bound=bound,
                               confidence=confidence)
                   for key in self.candidates(image)]
        hitters.sort(key=lambda h: (-h.estimate, h.key))
        return hitters[:k] if k > 0 else hitters


def _hll_alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class DistinctCountDecoder:
    """HLL cardinality estimation from a register-file image."""

    def __init__(self, layout: DistinctCountLayout) -> None:
        self.layout = layout

    def registers(self, image: Image) -> Tuple[int, ...]:
        return tuple(image.get(w, 0) for w in self.layout.words())

    def estimate(self, image: Image) -> float:
        """Harmonic-mean estimator with small-range linear counting."""
        regs = self.registers(image)
        m = self.layout.m
        raw = _hll_alpha(m) * m * m / sum(2.0 ** -r for r in regs)
        zeros = regs.count(0)
        if raw <= 2.5 * m and zeros > 0:
            return m * math.log(m / zeros)
        return raw
