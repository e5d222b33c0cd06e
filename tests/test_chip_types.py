"""Chip profiles and their derived quantities."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.nand.chip_types import (
    ChipProfile,
    EraseWorkModel,
    MLC_3D_48L,
    TLC_2D_2XNM,
    TLC_3D_48L,
    builtin_profiles,
    profile_by_name,
)


def test_paper_timing_constants():
    assert TLC_3D_48L.t_ep_us == 3500.0
    assert TLC_3D_48L.t_r_us == 40.0
    assert TLC_3D_48L.t_prog_us == 350.0
    assert TLC_3D_48L.pulses_per_loop == 7
    assert TLC_3D_48L.max_loops == 5
    assert TLC_3D_48L.max_pulses == 35


def test_failbit_thresholds_ordering(any_profile):
    assert any_profile.f_pass < any_profile.gamma < any_profile.delta
    assert any_profile.f_high_deltas == 7


def test_failbit_range_edges(profile):
    edges = profile.failbit_range_edges()
    assert edges[0] == profile.gamma
    assert edges[1] == profile.delta
    assert edges[-1] == 7 * profile.delta
    assert len(edges) == 8


def test_failbit_range_index(profile):
    gamma, delta = profile.gamma, profile.delta
    assert profile.failbit_range_index(0) == 0
    assert profile.failbit_range_index(gamma) == 0
    assert profile.failbit_range_index(gamma + 1) == 1
    assert profile.failbit_range_index(delta) == 1
    assert profile.failbit_range_index(3 * delta) == 3
    assert profile.failbit_range_index(7 * delta) == 7
    assert profile.failbit_range_index(7 * delta + 1) == 8  # above FHIGH


def test_loop_voltage_and_damage_monotonic(any_profile):
    factors = [any_profile.loop_voltage_factor(i) for i in range(1, 6)]
    damages = [any_profile.pulse_damage(i) for i in range(1, 6)]
    assert factors == sorted(factors)
    assert damages == sorted(damages)
    assert factors[0] == 1.0
    assert damages[0] == 1.0


def test_loop_index_counts_from_one(profile):
    with pytest.raises(ConfigError):
        profile.loop_voltage_factor(0)


def test_profile_lookup():
    for profile in builtin_profiles():
        assert profile_by_name(profile.name) is profile
    with pytest.raises(ConfigError):
        profile_by_name("no-such-chip")


def test_profile_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(TLC_3D_48L, bits_per_cell=7)
    with pytest.raises(ConfigError):
        dataclasses.replace(TLC_3D_48L, t_ep_us=3400.0)  # not a pulse multiple
    with pytest.raises(ConfigError):
        dataclasses.replace(TLC_3D_48L, f_pass=9999)  # FPASS > gamma


def test_erase_work_floor_interpolation():
    work = EraseWorkModel()
    assert work.floor_pulses(0) == 1.0
    assert work.floor_pulses(2000) == 8.0  # every block >= 2 loops at 2K
    assert work.floor_pulses(1500) == pytest.approx(5.0)  # midpoint 2..8
    assert work.floor_pulses(99000) == work.floor_points[-1][1]


def test_cross_profile_distinctions():
    assert TLC_3D_48L.is_3d and not TLC_2D_2XNM.is_3d
    assert MLC_3D_48L.bits_per_cell == 2
    # Figure 11: gamma/delta differ across chip types but obey ordering.
    assert TLC_2D_2XNM.delta != TLC_3D_48L.delta
    assert MLC_3D_48L.delta != TLC_3D_48L.delta
