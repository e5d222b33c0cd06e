"""AEROFTL: SEF management and feature-command accounting."""

import pytest

from repro.config import SsdSpec
from repro.core.aero import AeroEraseScheme
from repro.erase.ispe import BaselineIspeScheme
from repro.errors import ConfigError
from repro.ftl.aeroftl import AeroFtl
from repro.nand.chip import NandChip


def build_aero_ftl(spec: SsdSpec, aggressive=True):
    geometry = spec.geometry
    chips = [
        NandChip(
            channel=channel, chip=chip, profile=spec.profile,
            planes=geometry.planes_per_chip,
            blocks_per_plane=geometry.blocks_per_plane,
            pages_per_block=geometry.pages_per_block,
            seed=spec.seed,
        )
        for channel in range(geometry.channels)
        for chip in range(geometry.chips_per_channel)
    ]
    scheme = AeroEraseScheme(spec.profile, aggressive=aggressive)
    return AeroFtl(spec, chips, scheme)


def test_requires_aero_scheme(small_spec):
    geometry = small_spec.geometry
    chips = [
        NandChip(0, 0, small_spec.profile, geometry.planes_per_chip,
                 geometry.blocks_per_plane, geometry.pages_per_block, 1)
    ]
    with pytest.raises(ConfigError):
        AeroFtl(small_spec, chips, BaselineIspeScheme(small_spec.profile))


def test_sef_covers_all_blocks(small_spec):
    ftl = build_aero_ftl(small_spec)
    assert len(ftl.sef) == small_spec.geometry.blocks
    assert ftl.sef.enabled_count == small_spec.geometry.blocks


def test_erases_drive_sef_and_feature_commands(small_spec):
    ftl = build_aero_ftl(small_spec)
    for round_index in range(3):
        for lpn in range(small_spec.logical_pages):
            ftl.write(lpn)
    assert ftl.stats.erases > 0
    # Shallow probes and reduced pulses issue SET FEATURE commands;
    # every verify-read issues a GET FEATURE.
    assert ftl.set_feature_commands > 0
    assert ftl.get_feature_commands >= ftl.stats.erases
    ftl.check_consistency()


def test_sef_disabled_for_hard_blocks(small_spec):
    ftl = build_aero_ftl(small_spec)
    # Age every block so first loops can't be shortened.
    for chip in ftl._chips.values():
        for block in chip.iter_blocks():
            block.wear.age_kilocycles = 3.0
            block.wear.pec = 3000
    for round_index in range(3):
        for lpn in range(small_spec.logical_pages):
            ftl.write(lpn)
    assert ftl.sef.enabled_count < len(ftl.sef)


def test_overhead_report(small_spec):
    ftl = build_aero_ftl(small_spec)
    for round_index in range(2):
        for lpn in range(small_spec.logical_pages):
            ftl.write(lpn)
    report = ftl.overhead_report()
    assert report["ept_bytes"] <= 256          # paper: 140 B
    assert report["sef_fraction_of_capacity"] < 1e-4
    assert report["erases"] == ftl.stats.erases


def test_ept_property_is_conservative_table(small_spec):
    ftl = build_aero_ftl(small_spec)
    assert not ftl.ept.aggressive
    assert ftl.ept.loops == small_spec.profile.max_loops
