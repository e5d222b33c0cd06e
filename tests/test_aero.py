"""AERO erase scheme: FELP-driven reduction, shallow erasure, margins."""

import dataclasses

import pytest

from repro.core.aero import AeroEraseScheme
from repro.erase.ispe import BaselineIspeScheme
from repro.erase.scheme import SegmentKind
from repro.errors import ConfigError
from tests.conftest import make_block


@pytest.fixture
def aero(profile):
    return AeroEraseScheme(profile, aggressive=True)


@pytest.fixture
def aero_cons(profile):
    return AeroEraseScheme(profile, aggressive=False)


def test_scheme_names(aero, aero_cons):
    assert aero.name == "aero"
    assert aero_cons.name == "aero_cons"


def test_config_validation(profile):
    with pytest.raises(ConfigError):
        AeroEraseScheme(profile, mispredict_rate=1.5)
    with pytest.raises(ConfigError):
        AeroEraseScheme(profile, shallow_pulses=7)


@pytest.mark.parametrize("key", ["aero", "aero_cons"])
def test_rber_requirement_must_be_positive(profile, key):
    from repro.experiments import ExperimentSpec
    from repro.schemes import make_scheme

    for requirement in (0, -3):
        with pytest.raises(ConfigError, match="rber_requirement must be"):
            make_scheme(profile, key, rber_requirement=requirement)
    make_scheme(profile, key, rber_requirement=40)
    # Valid specs keep their fingerprints (computed before the check).
    spec = ExperimentSpec(scheme="aero", scheme_params={"rber_requirement": 40})
    assert spec.fingerprint == (
        "368e07e526bfa901de6e5b65c7ae41b52aa33060c6941f8b40191bc3b74b7ff3"
    )


def test_shallow_erasure_on_fresh_block(aero_cons, profile, rng):
    """Single-loop erase optimized via the 1 ms probe (Figure 6b)."""
    block = make_block(profile, age_kilocycles=0.1)
    result = aero_cons.erase(block, rng)
    assert result.completed
    assert result.used_shallow_erase
    first = result.segments[0]
    assert first.kind is SegmentKind.ERASE_PULSE
    assert first.pulses == 2  # tSE = 1 ms
    assert result.latency_us < profile.t_ep_us + profile.t_vr_us


def test_conservative_never_under_erases(aero_cons, profile, rng):
    """AEROcons provides exactly ISPE's reliability guarantee."""
    for age in (0.0, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5):
        for index in range(10):
            block = make_block(profile, age_kilocycles=age, seed=50 + index, index=index)
            result = aero_cons.erase(block, rng)
            assert result.completed
            assert not result.accepted_under_erase
            assert result.residual_fail_bits == 0
            assert block.wear.residual_fail_bits == 0


def test_aero_reduces_latency_vs_baseline(aero, profile, rng):
    total_aero, total_base = 0.0, 0.0
    for age in (0.2, 1.0, 2.5, 4.0):
        for index in range(8):
            block_a = make_block(profile, age_kilocycles=age, seed=90 + index)
            block_b = make_block(profile, age_kilocycles=age, seed=90 + index)
            total_aero += aero.erase(block_a, rng).latency_us
            total_base += BaselineIspeScheme(profile).erase(block_b, rng).latency_us
    assert total_aero < 0.8 * total_base


def test_aero_reduces_damage_vs_baseline(aero, profile, rng):
    for age in (0.2, 2.5, 4.5):
        block_a = make_block(profile, age_kilocycles=age, seed=13)
        block_b = make_block(profile, age_kilocycles=age, seed=13)
        damage_a = aero.erase(block_a, rng).damage
        damage_b = BaselineIspeScheme(profile).erase(block_b, rng).damage
        assert damage_a < damage_b


def test_aggressive_accepts_bounded_residual(aero, profile, rng):
    accepted = []
    for index in range(40):
        block = make_block(profile, age_kilocycles=2.0, seed=200 + index)
        result = aero.erase(block, rng)
        if result.accepted_under_erase:
            accepted.append(result)
            assert result.residual_fail_bits <= aero.predictor.acceptance_threshold()
            assert result.residual_fail_bits > profile.f_pass
            assert block.wear.residual_fail_bits == result.residual_fail_bits
    assert accepted, "aggressive mode never used its margin at 2K PEC"


def test_sef_disables_probe_on_hard_blocks(aero, profile, rng):
    """Multi-loop blocks flip their shallow flag (Figure 12, step 5)."""
    block = make_block(profile, age_kilocycles=3.0, seed=77)
    assert aero.shallow_enabled(block)
    result = aero.erase(block, rng)
    assert result.used_shallow_erase
    assert not result.shallow_erase_useful
    assert not aero.shallow_enabled(block)
    # Next erase skips the probe entirely: first segment is a full EP.
    result2 = aero.erase(block, rng)
    assert not result2.used_shallow_erase
    assert result2.segments[0].pulses == profile.pulses_per_loop


def test_use_shallow_override(aero, profile, rng):
    block = make_block(profile, age_kilocycles=0.1)
    result = aero.erase(block, rng, use_shallow=False)
    assert not result.used_shallow_erase


def test_misprediction_injection_and_repair(profile, rng):
    scheme = AeroEraseScheme(profile, aggressive=False, mispredict_rate=1.0)
    block = make_block(profile, age_kilocycles=0.5)
    result = scheme.erase(block, rng)
    assert result.completed
    assert scheme.stats.injected_mispredictions >= 1
    assert result.mispredictions >= 1
    # Repair pulses are single quanta (paper: +0.5 ms per event).
    repair = [
        s for s in result.segments
        if s.kind is SegmentKind.ERASE_PULSE and s.pulses == 1
    ]
    assert repair


def test_stats_accumulate(aero, profile, rng):
    for index in range(5):
        block = make_block(profile, age_kilocycles=1.0, seed=300 + index)
        aero.erase(block, rng)
    stats = dataclasses.asdict(aero.stats)
    assert stats["erases"] == 5
    assert stats["shallow_probes"] >= 1
    assert stats["pulses_saved_vs_baseline"] > 0


@pytest.mark.parametrize("aggressive", [False, True])
def test_pulses_saved_counts_final_ladder_loop(aggressive, profile, rng):
    """Pulses saved are measured against each erase's final ladder loop
    (``result.loops``), as the batch kernels count them, not against a
    single loop per completed multi-loop erase."""
    scheme = AeroEraseScheme(profile, aggressive=aggressive)
    per_loop = profile.pulses_per_loop
    expected = 0
    for index in range(64):
        block = make_block(profile, age_kilocycles=3.0, index=index)
        result = scheme.erase(block, rng, use_shallow=False)
        expected += max(0, per_loop * result.loops - result.total_pulses)
    assert expected > 0
    assert scheme.stats.pulses_saved_vs_baseline == expected


def test_equation2_latency_structure(aero_cons, profile, rng):
    """tBERS = (tEP + tVR) * NISPE - delta_tEP (Equation 2): the final
    loop is the truncated one; earlier loops run at full length."""
    block = make_block(profile, age_kilocycles=2.5, seed=11)
    result = aero_cons.erase(block, rng)
    if result.loops >= 2 and not result.used_shallow_erase:
        pulse_segments = [
            s for s in result.segments if s.kind is SegmentKind.ERASE_PULSE
        ]
        for segment in pulse_segments[:-1]:
            if segment.loop < result.loops:
                assert segment.pulses == profile.pulses_per_loop
        assert result.latency_us <= result.loops * (
            profile.t_ep_us + profile.t_vr_us
        )


def test_aero_on_all_profiles(any_profile, rng):
    """The scheme works unmodified on 2D TLC and 3D MLC (Section 5.5)."""
    scheme = AeroEraseScheme(any_profile, aggressive=True)
    for age in (0.2, 2.0, 4.0):
        block = make_block(any_profile, age_kilocycles=age, seed=40)
        result = scheme.erase(block, rng)
        assert result.completed or result.accepted_under_erase
