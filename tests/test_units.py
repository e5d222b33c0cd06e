"""Unit conversions."""

from repro import units


def test_time_constructors():
    assert units.us(1) == 1.0
    assert units.ms(1) == 1000.0
    assert units.ms(3.5) == 3500.0


def test_sector_size_is_512():
    assert units.SECTOR_BYTES == 512
