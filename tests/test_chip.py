"""NAND chip structure and timing."""

import dataclasses

import pytest

from repro.errors import AddressError, ConfigError
from repro.nand.chip import NandChip
from repro.nand.geometry import BlockAddress
from repro.nand.timing import NandTiming


@pytest.fixture
def chip(profile):
    return NandChip(
        channel=0, chip=0, profile=profile,
        planes=2, blocks_per_plane=4, pages_per_block=8, seed=5,
    )


def test_chip_structure(chip):
    assert len(chip.planes) == 2
    assert len(list(chip.iter_blocks())) == 8
    assert len(chip.plane(0).blocks) == 4


def test_block_resolution(chip):
    address = BlockAddress(0, 0, 1, 2)
    block = chip.block(address)
    assert block.address == address
    with pytest.raises(AddressError):
        chip.block(BlockAddress(1, 0, 0, 0))  # wrong channel
    with pytest.raises(AddressError):
        chip.plane(5)


def test_program_then_read_timing(chip, profile):
    """The chip schedules with its profile's datasheet latencies."""
    assert chip.timing.t_prog_us == profile.t_prog_us
    assert chip.timing.t_r_us == profile.t_r_us


class TestNandTiming:
    def test_from_profile(self, profile):
        timing = NandTiming.from_profile(profile)
        assert timing.t_ep_us == profile.t_ep_us

    def test_erase_pulse_duration(self, profile):
        timing = NandTiming.from_profile(profile)
        assert timing.erase_pulse_us(7) == profile.t_ep_us
        assert timing.erase_pulse_us(0) == 0.0

    def test_validation(self, profile):
        timing = NandTiming.from_profile(profile)
        with pytest.raises(ConfigError):
            dataclasses.replace(timing, t_prog_us=0.0)
        with pytest.raises(ConfigError):
            timing.erase_pulse_us(-1)
