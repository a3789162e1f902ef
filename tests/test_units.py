"""Unit-conversion helpers."""

import pytest

from repro import units


class TestTimeConversions:
    def test_seconds_to_ns(self):
        assert units.seconds(1) == 1_000_000_000

    def test_fractional_seconds(self):
        assert units.seconds(0.5) == 500_000_000

    def test_milliseconds(self):
        assert units.milliseconds(2) == 2_000_000

    def test_microseconds(self):
        assert units.microseconds(3) == 3_000

    def test_rounding_not_truncation(self):
        # 1.9999999995 s rounds to 2 s, not 1.999999999.
        assert units.seconds(1.9999999996) == 2_000_000_000


class TestTransmissionTime:
    def test_64_bytes_at_10g(self):
        # 512 bits at 10 Gb/s = 51.2 ns, rounded up to 52.
        assert units.transmission_time_ns(
            64, 10 * units.GIGABITS_PER_SEC) == 52

    def test_1500_bytes_at_1g(self):
        assert units.transmission_time_ns(
            1500, units.GIGABITS_PER_SEC) == 12_000

    def test_exact_division_not_rounded_up(self):
        # 1000 bytes at 1 Gb/s is exactly 8000 ns.
        assert units.transmission_time_ns(
            1000, units.GIGABITS_PER_SEC) == 8_000

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_time_ns(100, 0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_time_ns(100, -5)


class TestRates:
    def test_rate_constants(self):
        assert units.GIGABITS_PER_SEC == 1000 * units.MEGABITS_PER_SEC
        assert units.MEGABITS_PER_SEC == 1000 * units.KILOBITS_PER_SEC
