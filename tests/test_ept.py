"""Erase-timing Parameter Table: published values and builders."""

import pytest

from repro.core.ept import (
    EraseTimingTable,
    FelpSample,
    build_aggressive_table,
    build_conservative_table,
    format_table,
    published_aggressive_table,
    published_conservative_table,
)
from repro.errors import ConfigError
from repro.nand.rber import RberModel


def test_published_conservative_matches_table1(profile):
    """Table 1's t1 column in pulse quanta (0.5 ms units)."""
    table = published_conservative_table(profile)
    assert table.row(1) == (1, 2, 3, 4, 5, 5, 5, 5)     # capped by shallow
    for loop in range(2, 6):
        assert table.row(loop) == (1, 2, 3, 4, 5, 6, 7, 7)


def test_published_aggressive_matches_table1(profile):
    """Table 1's t2 column: skip 2 quanta for loops 1-3, 1 for loop 4."""
    table = published_aggressive_table(profile)
    assert table.row(1) == (0, 0, 1, 2, 3, 3, 3, 3)
    assert table.row(2) == (0, 0, 1, 2, 3, 4, 5, 5)
    assert table.row(3) == (0, 0, 1, 2, 3, 4, 5, 5)
    assert table.row(4) == (0, 1, 2, 3, 4, 5, 6, 6)
    assert table.row(5) == (1, 2, 3, 4, 5, 6, 7, 7)     # t2 == t1


def test_storage_overhead_matches_paper(profile):
    """Paper Section 6: 35 entries, 140 bytes with 32-bit values."""
    table = published_conservative_table(profile)
    assert table.entry_count == 40  # 5 loops x 8 ranges (paper: 7x5=35)
    assert table.storage_bytes == table.entry_count * 4
    assert table.storage_bytes <= 256


def test_lookup_above_fhigh_returns_default(profile):
    table = published_conservative_table(profile)
    assert table.lookup_pulses(profile, 2, profile.f_high_deltas * profile.delta + 1) == 7


def test_lookup_within_ranges(profile):
    table = published_conservative_table(profile)
    assert table.lookup_pulses(profile, 2, profile.gamma) == 1
    assert table.lookup_pulses(profile, 2, profile.delta) == 2
    assert table.lookup_pulses(profile, 3, 3 * profile.delta) == 4


def test_table_validation(profile):
    with pytest.raises(ConfigError):
        EraseTimingTable(profile_name="x", rows=(), default_pulses=7)
    with pytest.raises(ConfigError):
        EraseTimingTable(
            profile_name="x", rows=((1, 2), (1, 2, 3)), default_pulses=7
        )
    with pytest.raises(ConfigError):
        EraseTimingTable(profile_name="x", rows=((9,),), default_pulses=7)
    table = published_conservative_table(profile)
    with pytest.raises(ConfigError):
        table.row(0)
    with pytest.raises(ConfigError):
        table.row(99)


class TestConservativeBuilder:
    def test_builder_is_conservative_over_samples(self, profile):
        samples = [
            FelpSample(loop=2, fail_bits=profile.gamma - 50, remaining_pulses=1),
            FelpSample(loop=2, fail_bits=int(0.8 * profile.delta), remaining_pulses=2),
            FelpSample(loop=2, fail_bits=int(0.9 * profile.delta), remaining_pulses=1),
            FelpSample(loop=3, fail_bits=int(2.5 * profile.delta), remaining_pulses=3),
        ]
        table = build_conservative_table(profile, samples)
        for sample in samples:
            predicted = table.lookup_pulses(profile, sample.loop, sample.fail_bits)
            assert predicted >= sample.remaining_pulses

    def test_builder_monotone_in_range(self, profile):
        samples = [
            FelpSample(loop=2, fail_bits=int(3.5 * profile.delta), remaining_pulses=4),
        ]
        table = build_conservative_table(profile, samples)
        for loop in range(1, 6):
            row = table.row(loop)
            assert list(row) == sorted(row)

    def test_builder_rejects_bad_samples(self, profile):
        with pytest.raises(ConfigError):
            build_conservative_table(
                profile, [FelpSample(loop=0, fail_bits=1, remaining_pulses=1)]
            )


class TestAggressiveBuilder:
    def test_reproduces_published_t2(self, profile):
        """The ECC-margin analysis derives exactly Table 1's skips."""
        conservative = published_conservative_table(profile)
        built = build_aggressive_table(profile, conservative)
        assert built.rows == published_aggressive_table(profile).rows

    def test_weaker_requirement_shrinks_skips(self, profile):
        """Figure 17: a 40-bit requirement nearly disables aggression."""
        conservative = published_conservative_table(profile)
        default = build_aggressive_table(profile, conservative)
        weak = build_aggressive_table(
            profile, conservative, requirement_bits_per_kib=40
        )
        def total_skip(table):
            return sum(
                c - a
                for c_row, a_row in zip(conservative.rows, table.rows)
                for c, a in zip(c_row, a_row)
            )
        assert total_skip(weak) < total_skip(default)

    def test_requirement_sweep_monotone(self, profile):
        conservative = published_conservative_table(profile)
        rber = RberModel(profile)
        skips = []
        for requirement in (40, 50, 63):
            table = build_aggressive_table(
                profile, conservative, rber, requirement_bits_per_kib=requirement
            )
            skips.append(
                sum(
                    c - a
                    for c_row, a_row in zip(conservative.rows, table.rows)
                    for c, a in zip(c_row, a_row)
                )
            )
        assert skips == sorted(skips)


def test_format_table_renders(profile):
    text = format_table(profile, published_conservative_table(profile))
    assert "NISPE" in text
    assert "3.5" in text
