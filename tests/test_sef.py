"""Shallow Erasure Flags bitmap."""

import pytest

from repro.core.sef import ShallowEraseFlags
from repro.errors import ConfigError


def test_fresh_drive_all_enabled():
    sef = ShallowEraseFlags(128)
    assert len(sef) == 128
    assert sef.enabled_count == 128
    assert all(sef.shallow_enabled(i) for i in range(128))


def test_disable_one_block():
    sef = ShallowEraseFlags(16)
    sef.disable_shallow(3)
    assert not sef.shallow_enabled(3)
    assert sef.enabled_count == 15
    assert sef.shallow_enabled(2) and sef.shallow_enabled(4)


def test_storage_overhead_matches_paper():
    """Paper: 1 bit per block -> ~12.5 KB for a 1 TB SSD (~100K blocks)."""
    sef = ShallowEraseFlags(8 * 12_500)
    assert sef.storage_bytes == 12_500


def test_rejects_empty():
    with pytest.raises(ConfigError):
        ShallowEraseFlags(0)
