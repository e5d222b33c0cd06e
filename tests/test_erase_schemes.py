"""Baseline, m-ISPE, i-ISPE and DPES erase schemes."""

import pytest

from repro.erase.dpes import (
    APPLICABLE_PEC_LIMIT,
    DpesScheme,
    T_PROG_SCALE_EARLY,
    T_PROG_SCALE_LATE,
)
from repro.erase.iispe import IntelligentIspeScheme
from repro.erase.ispe import BaselineIspeScheme
from repro.erase.mispe import MIspeScheme
from repro.erase.scheme import SegmentKind
from tests.conftest import make_block


class TestBaselineIspe:
    def test_single_loop_at_fresh(self, profile, rng):
        block = make_block(profile, age_kilocycles=0.0)
        result = BaselineIspeScheme(profile).erase(block, rng)
        assert result.completed
        assert result.loops == 1
        assert result.total_pulses == 7
        # tBERS = (tEP + tVR) * NISPE, Equation (1).
        assert result.latency_us == pytest.approx(profile.t_ep_us + profile.t_vr_us)

    def test_multi_loop_when_worn(self, profile, rng):
        block = make_block(profile, age_kilocycles=3.0)
        result = BaselineIspeScheme(profile).erase(block, rng)
        assert result.completed
        assert result.loops >= 2
        assert result.latency_us == pytest.approx(
            result.loops * (profile.t_ep_us + profile.t_vr_us)
        )

    def test_full_pulse_every_loop(self, profile, rng):
        block = make_block(profile, age_kilocycles=4.0)
        result = BaselineIspeScheme(profile).erase(block, rng)
        pulses = [s for s in result.segments if s.kind is SegmentKind.ERASE_PULSE]
        assert all(s.pulses == 7 for s in pulses)

    def test_cycles_multiplier(self, profile, rng):
        block = make_block(profile)
        BaselineIspeScheme(profile).erase(block, rng, cycles=100)
        assert block.wear.pec == 100
        assert block.wear.age_kilocycles == pytest.approx(0.1, rel=1e-6)


class TestMIspe:
    def test_measures_minimum_latency(self, profile, rng):
        block = make_block(profile, age_kilocycles=2.5)
        reference = block.erase_model.deterministic_pulses(2.5)
        measurement = MIspeScheme(profile).measure(block, rng)
        # The measured work equals the model's requirement (+- jitter).
        assert abs(measurement.short_loops - reference) <= 2
        assert measurement.nispe == (measurement.short_loops + 6) // 7

    def test_trace_is_monotonically_decreasing_to_pass(self, profile, rng):
        block = make_block(profile, age_kilocycles=1.0)
        measurement = MIspeScheme(profile).measure(block, rng)
        trace = measurement.fail_bits_per_pulse
        assert trace[-1] <= profile.f_pass
        # Broad monotone decrease (noise-tolerant): first third vs last.
        if len(trace) >= 4:
            assert trace[0] >= trace[-2]

    def test_mtep_formula(self, profile, rng):
        block = make_block(profile, age_kilocycles=3.0)
        m = MIspeScheme(profile).measure(block, rng)
        expected = (1 + (m.short_loops - 1) % 7) * profile.pulse_quantum_us
        assert m.min_t_ep_final_us == expected


class TestIntelligentIspe:
    def test_first_erase_behaves_like_baseline(self, profile, rng):
        block = make_block(profile, age_kilocycles=0.0)
        scheme = IntelligentIspeScheme(profile)
        result = scheme.erase(block, rng)
        assert result.completed
        assert scheme.memorized_loop(block) == result.loops

    def test_jump_skips_early_loops(self, profile, rng):
        block = make_block(profile, age_kilocycles=3.0)
        scheme = IntelligentIspeScheme(profile)
        scheme._memorized_loop[block.address] = 3
        result = scheme.erase(block, rng)
        assert result.completed
        first_pulse = next(
            s for s in result.segments if s.kind is SegmentKind.ERASE_PULSE
        )
        assert first_pulse.loop == 3

    def test_stale_memory_escalates_voltage(self, profile, rng):
        """A jump that fails pushes VERASE above what ISPE would use."""
        block = make_block(profile, age_kilocycles=4.0)
        nispe_now = block.erase_model.nispe(4.0)
        scheme = IntelligentIspeScheme(profile)
        scheme._memorized_loop[block.address] = nispe_now
        result = scheme.erase(block, rng)
        assert result.completed
        # Partial voltage credit on 3D chips often forces an extra loop.
        assert result.loops >= nispe_now

    def test_jump_damage_exceeds_gentle_ladder_at_high_wear(self, profile, rng):
        age = 4.0
        block_i = make_block(profile, age_kilocycles=age, seed=500)
        block_b = make_block(profile, age_kilocycles=age, seed=500)
        from repro.erase.ispe import BaselineIspeScheme

        iispe = IntelligentIspeScheme(profile)
        iispe._memorized_loop[block_i.address] = block_i.erase_model.nispe(age)
        damage_i = iispe.erase(block_i, rng).damage
        damage_b = BaselineIspeScheme(profile).erase(block_b, rng).damage
        assert damage_i > damage_b


class TestDpes:
    def test_active_reduces_damage(self, profile, rng):
        block_d = make_block(profile, age_kilocycles=1.0, seed=9)
        block_b = make_block(profile, age_kilocycles=1.0, seed=9)
        from repro.erase.ispe import BaselineIspeScheme

        damage_d = DpesScheme(profile).erase(block_d, rng).damage
        damage_b = BaselineIspeScheme(profile).erase(block_b, rng).damage
        assert damage_d < 0.7 * damage_b

    def test_program_penalty_schedule(self, profile):
        scheme = DpesScheme(profile)
        young = make_block(profile, age_kilocycles=0.5)
        assert scheme.program_scale(young) == T_PROG_SCALE_EARLY
        mid = make_block(profile, age_kilocycles=2.5)
        assert scheme.program_scale(mid) == T_PROG_SCALE_LATE
        old = make_block(profile, age_kilocycles=4.0)
        assert scheme.program_scale(old) == 1.0

    def test_inactive_past_3k_pec(self, profile, rng):
        block = make_block(profile, age_kilocycles=APPLICABLE_PEC_LIMIT / 1000 + 0.5)
        scheme = DpesScheme(profile)
        assert not scheme.is_active(block)
        result = scheme.erase(block, rng)
        assert result.rber_offset == 0.0
        assert result.t_prog_scale == 1.0

    def test_active_sets_rber_offset(self, profile, rng):
        block = make_block(profile, age_kilocycles=1.0)
        result = DpesScheme(profile).erase(block, rng)
        assert result.rber_offset > 0
