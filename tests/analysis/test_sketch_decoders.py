"""Unit tests for the sketch decoders and layout math (no TCPU)."""

import math

import pytest

from repro.analysis.sketch import (
    CountMinDecoder,
    DistinctCountDecoder,
    HeavyHitterDecoder,
    image_from_mmu,
)
from repro.core.memory_map import SRAM_BASE, MemoryMap
from repro.core.mmu import MMU
from repro.errors import ConfigurationError
from repro.telemetry import (
    CountMinLayout,
    DistinctCountLayout,
    HeavyHitterLayout,
    disjoint_keys,
)


class TestLayoutMath:
    def test_error_bounds_follow_geometry(self):
        layout = CountMinLayout(base_word=0, width=27, depth=3)
        assert layout.epsilon == pytest.approx(math.e / 27)
        assert layout.delta == pytest.approx(math.exp(-3))
        assert layout.error_bound(1000) == pytest.approx(
            1000 * math.e / 27)

    def test_rows_occupy_disjoint_word_ranges(self):
        layout = CountMinLayout(base_word=10, width=8, depth=4)
        for key in (1, 42, 99999):
            words = layout.words_for(key)
            assert len(set(words)) == layout.depth
            for row, word in enumerate(words):
                row_lo = 10 + row * 8
                assert row_lo <= word < row_lo + 8

    def test_heavy_hitter_slots_follow_counters(self):
        layout = HeavyHitterLayout(base_word=4, width=8, depth=2,
                                   n_slots=3)
        assert layout.slot_base == 4 + 16
        assert layout.n_words == 16 + 3
        assert layout.slot_word(42) in layout.slot_words()
        assert layout.countmin.n_words == 16

    def test_layouts_reject_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            CountMinLayout(base_word=0, width=0, depth=2)
        with pytest.raises(ConfigurationError):
            CountMinLayout(base_word=1020, width=8, depth=2)
        with pytest.raises(ConfigurationError):
            DistinctCountLayout(base_word=0, m=12)  # not a power of two
        with pytest.raises(ConfigurationError):
            HeavyHitterLayout(base_word=0, width=4, depth=2, n_slots=0)

    def test_register_exposes_cell_symbols(self):
        memory_map = MemoryMap.standard()
        layout = HeavyHitterLayout(base_word=0, width=2, depth=2,
                                   n_slots=1, name="t")
        count = layout.register(memory_map)
        assert count == layout.n_words
        assert memory_map.resolve("Sketch:t-r1c1") == SRAM_BASE + 3
        assert memory_map.resolve("Sketch:t-slot0") == SRAM_BASE + 4

    def test_disjoint_keys_never_share_counter_cells(self):
        layout = CountMinLayout(base_word=0, width=8, depth=3)
        keys = disjoint_keys(layout, range(1, 2048), 2)
        assert len(keys) == 2
        a, b = (set(layout.words_for(k)) for k in keys)
        assert not a & b


class TestCountMinDecoder:
    LAYOUT = CountMinLayout(base_word=0, width=4, depth=2)

    def _image(self, counts):
        image = {w: 0 for w in self.LAYOUT.words()}
        for key, count in counts.items():
            for word in self.LAYOUT.words_for(key):
                image[word] += count
        return image

    def test_min_over_rows_and_row_sum(self):
        counts = {5: 10, 9: 3}
        image = self._image(counts)
        decoder = CountMinDecoder(self.LAYOUT)
        assert decoder.row_sum(image) == 13
        for key, count in counts.items():
            assert decoder.raw_estimate(image, key) >= count

    def test_estimate_bundles_the_contract(self):
        image = self._image({5: 10})
        est = CountMinDecoder(self.LAYOUT).estimate(image, 5)
        assert est.key == 5
        assert est.estimate >= 10
        assert est.error_bound == pytest.approx(
            self.LAYOUT.epsilon * 10)
        assert est.confidence == pytest.approx(1 - self.LAYOUT.delta)

    def test_missing_words_read_as_zero(self):
        decoder = CountMinDecoder(self.LAYOUT)
        assert decoder.raw_estimate({}, 5) == 0
        assert decoder.row_sum({}) == 0


class TestHeavyHitterDecoder:
    LAYOUT = HeavyHitterLayout(base_word=0, width=4, depth=2, n_slots=2,
                               unclaimed_value=7)

    def test_candidates_skip_the_sentinel(self):
        image = {w: 0 for w in self.LAYOUT.words()}
        for word in self.LAYOUT.slot_words():
            image[word] = self.LAYOUT.unclaimed_value
        image[self.LAYOUT.slot_base] = 42
        decoder = HeavyHitterDecoder(self.LAYOUT)
        assert decoder.candidates(image) == (42,)

    def test_report_ranks_by_estimate_and_truncates(self):
        image = {w: 0 for w in self.LAYOUT.words()}
        for word in self.LAYOUT.slot_words():
            image[word] = self.LAYOUT.unclaimed_value
        # Install two candidates with distinct counter masses; their
        # slots must differ for both to be visible.
        a, b = 42, next(
            k for k in range(1, 999)
            if self.LAYOUT.slot_word(k) != self.LAYOUT.slot_word(42)
            and k != self.LAYOUT.unclaimed_value)
        for key, count in ((a, 5), (b, 30)):
            image[self.LAYOUT.slot_word(key)] = key
            for word in self.LAYOUT.countmin.words_for(key):
                image[word] += count
        decoder = HeavyHitterDecoder(self.LAYOUT)
        report = decoder.report(image)
        assert [h.key for h in report] == [b, a]
        assert [h.key for h in decoder.report(image, k=1)] == [b]
        assert report[0].estimate >= 30


class TestDistinctCountDecoder:
    def test_empty_image_estimates_zero(self):
        layout = DistinctCountLayout(base_word=0, m=16)
        assert DistinctCountDecoder(layout).estimate({}) == 0.0

    def test_saturated_registers_use_harmonic_mean(self):
        layout = DistinctCountLayout(base_word=0, m=16)
        image = {w: 10 for w in layout.words()}
        decoder = DistinctCountDecoder(layout)
        estimate = decoder.estimate(image)
        # No zero registers and raw > 2.5m: pure HLL path.
        assert estimate == pytest.approx(0.673 * 16 * 16 * (2 ** 10) / 16)

    def test_alpha_constants(self):
        from repro.analysis.sketch import _hll_alpha
        assert _hll_alpha(16) == 0.673
        assert _hll_alpha(32) == 0.697
        assert _hll_alpha(64) == 0.709
        assert _hll_alpha(128) == pytest.approx(
            0.7213 / (1 + 1.079 / 128))


class TestImageFromMMU:
    def test_snapshot_reads_the_requested_words(self):
        mmu = MMU(name="img")
        mmu.poke_sram(3, 77)
        assert image_from_mmu(mmu, [2, 3]) == {2: 0, 3: 77}
