"""RBER model: calibration, penalties, requirement crossing."""

import pytest

from repro.errors import ConfigError
from repro.nand.chip_types import TLC_3D_48L
from repro.nand.erase_model import WearState
from repro.nand.rber import RberModel


@pytest.fixture
def rber(profile):
    return RberModel(profile)


def test_fresh_block_mrber(rber, profile):
    assert rber.wear_rber(0.0) == profile.wear.fresh_rber


def test_wear_rber_monotonic(rber):
    values = [rber.wear_rber(age) for age in (0, 1, 2, 3, 4, 5, 6)]
    assert values == sorted(values)


def test_baseline_lifetime_calibration(rber, profile):
    """Closed-form pin: the mean block crosses the requirement exactly
    at the profile's target baseline lifetime (Figure 13: 5.3K)."""
    target_age = profile.wear.target_baseline_lifetime_pec / 1000.0
    total = rber.wear_rber(target_age) + rber.retention_rber(target_age)
    assert total == pytest.approx(profile.ecc.requirement_bits_per_kib, abs=1e-9)


def test_under_erase_penalty_zero_below_fpass(rber, profile):
    assert rber.under_erase_penalty(0, 1) == 0.0
    assert rber.under_erase_penalty(profile.f_pass, 3) == 0.0


def test_under_erase_penalty_grows_with_failbits(rber, profile):
    p1 = rber.under_erase_penalty(profile.gamma, 2)
    p2 = rber.under_erase_penalty(profile.delta, 2)
    p3 = rber.under_erase_penalty(2 * profile.delta, 2)
    assert 0 < p1 < p2 < p3


def test_under_erase_penalty_shrinks_with_nispe(rber, profile):
    residual = profile.delta
    penalties = [rber.under_erase_penalty(residual, n) for n in range(1, 6)]
    assert penalties == sorted(penalties, reverse=True)


def test_mrber_composition(rber, profile):
    wear = WearState(age_kilocycles=2.0, residual_fail_bits=profile.delta, residual_nispe=2)
    sample = rber.mrber(wear)
    assert sample.total == pytest.approx(
        sample.wear + sample.retention + sample.under_erase_penalty
    )
    assert sample.under_erase_penalty > 0


def test_extra_rber_term(rber):
    wear = WearState(age_kilocycles=1.0)
    plain = rber.mrber(wear).total
    offset = rber.mrber(wear, extra_rber=13.0).total
    assert offset == pytest.approx(plain + 13.0)


def test_sensitivity_scales_effective_age(rber):
    wear = WearState(age_kilocycles=3.0)
    soft = rber.mrber(wear, sensitivity=0.7).total
    mean = rber.mrber(wear, sensitivity=1.0).total
    hard = rber.mrber(wear, sensitivity=1.5).total
    assert soft < mean < hard


def test_meets_requirement(rber, profile):
    young = rber.mrber(WearState(age_kilocycles=0.5))
    old = rber.mrber(WearState(age_kilocycles=8.0))
    requirement = profile.ecc.requirement_bits_per_kib
    assert young.total <= requirement
    assert old.total > requirement


def test_retention_factor_validation(profile):
    with pytest.raises(ConfigError):
        RberModel(profile, retention_factor=-1.0)
    with pytest.raises(ConfigError):
        rber = RberModel(profile)
        rber.wear_rber(-0.1)


def test_figure10a_complete_erase_margins(rber, profile):
    """Complete erasure leaves a positive margin through mid-life:
    the paper reports up to 47 bits of margin at NISPE = 1."""
    def margin(age):
        sample = rber.mrber(WearState(age_kilocycles=age))
        return profile.ecc.requirement_bits_per_kib - sample.total

    assert 35 <= margin(0.3) <= 50
    assert margin(3.0) > 0
