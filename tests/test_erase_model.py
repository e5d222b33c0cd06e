"""Erase-physics model: the Figure 4/7 regularities."""

import numpy as np
import pytest

from repro.errors import EraseSchemeError
from repro.nand.chip_types import TLC_3D_48L
from repro.nand.erase_model import (
    BlockEraseModel,
    EraseState,
    WearState,
)
from repro.rng import make_rng


@pytest.fixture
def model(profile):
    return BlockEraseModel(profile, seed=42, )


def test_model_draw_is_deterministic(profile):
    a = BlockEraseModel(profile, 42, "x", 1)
    b = BlockEraseModel(profile, 42, "x", 1)
    assert a.base == b.base and a.rate == b.rate
    c = BlockEraseModel(profile, 42, "x", 2)
    assert (a.base, a.rate) != (c.base, c.rate)


def test_required_pulses_monotonic_in_age(model):
    pulses = [model.deterministic_pulses(age) for age in np.linspace(0, 8, 30)]
    assert pulses == sorted(pulses)
    assert pulses[0] >= 1
    assert pulses[-1] <= model.profile.max_pulses


def test_nispe_and_mtep_consistent(model, profile):
    for age in (0.0, 1.0, 2.5, 4.0, 5.5):
        pulses = model.deterministic_pulses(age)
        nispe = model.nispe(age)
        assert nispe == (pulses + 6) // 7
        mtep = model.min_t_ep_final_us(age)
        assert mtep == (1 + (pulses - 1) % 7) * profile.pulse_quantum_us
        mtbers = model.min_t_bers_us(age)
        assert mtbers == pytest.approx(
            pulses * profile.pulse_quantum_us + nispe * profile.t_vr_us
        )


def _population(profile, count=600, seed=7):
    return [
        BlockEraseModel(profile, seed, "population", index)
        for index in range(count)
    ]


def _nispe(population, age):
    return [model.nispe(age) for model in population]


def _min_t_bers_ms(population, age):
    return [model.min_t_bers_us(age) / 1000.0 for model in population]


def test_population_figure4_shape(profile):
    """Key Figure 4 observations hold over the population."""
    population = _population(profile)
    # PEC 0: every block erases in a single loop.
    assert set(_nispe(population, 0.0)) == {1}
    # PEC 1K: most blocks still single-loop (paper: 76.5 %).
    single = _nispe(population, 1.0).count(1) / 600
    assert 0.60 <= single <= 0.95
    # PEC 2K: every block needs at least two loops.
    assert 1 not in _nispe(population, 2.0)
    # PEC 5K: loop counts reach 4-5.
    assert 5 in _nispe(population, 5.0)
    # mtBERS spread grows with PEC (paper: sigma 2.7 ms at 3.5K).
    std_35 = float(np.std(_min_t_bers_ms(population, 3.5)))
    std_05 = float(np.std(_min_t_bers_ms(population, 0.5)))
    assert std_35 > std_05
    assert 1.5 <= std_35 <= 4.0


def test_population_majority_under_default_tep_at_pec0(profile):
    """Paper: >70 % of fresh blocks fully erase within 2.5 ms."""
    values = _min_t_bers_ms(_population(profile), 0.0)
    frac = sum(1 for v in values if v <= 2.5 + 0.1) / len(values)
    assert frac >= 0.6


class TestEraseState:
    def test_ladder_progress(self, profile):
        state = EraseState(required=10, profile=profile)
        state.start_loop(1)
        state.apply_pulses(7)
        assert state.progress == 7 < state.required
        state.start_loop(2)
        state.apply_pulses(3)
        assert state.progress == 10 == state.required

    def test_progress_capped_by_voltage(self, profile):
        """Dwelling at a low voltage cannot erase a hard block."""
        state = EraseState(required=20, profile=profile)
        state.start_loop(1)
        state.apply_pulses(7)
        state.apply_pulses(7)  # extra dwell at loop-1 voltage
        assert state.progress == 7  # capped at 7 * loop

    def test_jump_gets_partial_credit_on_3d(self, profile):
        assert profile.is_3d
        state = EraseState(required=14, profile=profile)
        state.start_loop(2)  # i-ISPE-style jump
        assert state.skipped_loops == 1
        # 0.8 efficiency: credit 5.6 < 7 full loops.
        assert state.progress == pytest.approx(0.8 * 7)
        state.apply_pulses(7)
        assert state.progress < state.required  # the jump made it fail

    def test_jump_full_credit_on_2d(self):
        from repro.nand.chip_types import TLC_2D_2XNM

        state = EraseState(required=14, profile=TLC_2D_2XNM)
        state.start_loop(2)
        assert state.progress == pytest.approx(7.0)
        state.apply_pulses(7)
        assert state.progress >= state.required  # i-ISPE works on 2D

    def test_cannot_lower_voltage(self, profile):
        state = EraseState(required=10, profile=profile)
        state.start_loop(3)
        with pytest.raises(EraseSchemeError):
            state.start_loop(2)

    def test_pulse_before_loop_rejected(self, profile):
        state = EraseState(required=5, profile=profile)
        with pytest.raises(EraseSchemeError):
            state.apply_pulses(1)

    def test_damage_grows_with_loop_voltage(self, profile):
        low = EraseState(required=99, profile=profile)
        low.start_loop(1)
        low.apply_pulses(7)
        high = EraseState(required=99, profile=profile)
        high.start_loop(1)
        high.apply_pulses(7)
        high.start_loop(2)
        high.apply_pulses(7)
        per_pulse_low = low.damage / 7
        per_pulse_high = (high.damage - low.damage) / 7
        assert per_pulse_high > per_pulse_low

    def test_damage_scale_applies(self, profile):
        scaled = EraseState(required=99, profile=profile, damage_scale=0.5)
        scaled.start_loop(1)
        scaled.apply_pulses(4)
        plain = EraseState(required=99, profile=profile)
        plain.start_loop(1)
        plain.apply_pulses(4)
        assert scaled.damage == pytest.approx(0.5 * plain.damage)


class TestVerifyRead:
    def test_failbit_linearity(self, profile, rng):
        """F ~ gamma + delta*(r-1): slope delta per remaining pulse."""
        means = {}
        for remaining in (2, 4, 6):
            samples = []
            for _ in range(300):
                state = EraseState(required=7 + remaining, profile=profile)
                state.start_loop(1)
                state.apply_pulses(7)
                state.start_loop(2)
                samples.append(state.verify_read(rng))
            means[remaining] = float(np.mean(samples))
        slope_24 = (means[4] - means[2]) / 2
        slope_46 = (means[6] - means[4]) / 2
        assert slope_24 == pytest.approx(profile.delta, rel=0.25)
        assert slope_46 == pytest.approx(profile.delta, rel=0.25)

    def test_gamma_floor_consistent(self, profile, rng):
        """One pulse remaining reads ~gamma, well above FPASS."""
        samples = []
        for _ in range(200):
            state = EraseState(required=8, profile=profile)
            state.start_loop(1)
            state.apply_pulses(7)
            samples.append(state.verify_read(rng))
        mean = float(np.mean(samples))
        assert mean == pytest.approx(profile.gamma, rel=0.15)
        assert min(samples) > profile.f_pass

    def test_complete_block_passes(self, profile, rng):
        state = EraseState(required=5, profile=profile)
        state.start_loop(1)
        state.apply_pulses(5)
        for _ in range(50):
            fail_bits = state.verify_read(rng)
            assert state.passes(fail_bits)

    def test_saturation_far_from_complete(self, profile, rng):
        state = EraseState(required=35, profile=profile)
        state.start_loop(1)
        state.apply_pulses(1)
        counts = [state.verify_read(rng) for _ in range(50)]
        # Above FHIGH: no reduction possible.
        assert min(counts) > profile.f_high_deltas * profile.delta


class TestWearState:
    def test_baseline_cycling_ages_one_cycle_per_erase(self, profile):
        """Under Baseline ISPE, wear age == PEC/1000 exactly."""
        model = BlockEraseModel(profile, 11)
        wear = WearState()
        for _ in range(40):
            loops = model.nispe(wear.age_kilocycles)
            damage = 7 * sum(profile.pulse_damage(i) for i in range(1, loops + 1))
            baseline = model.begin_erase(wear.age_kilocycles).baseline_damage
            wear.record_erase(damage, baseline, cycles=25)
        assert wear.pec == 1000
        assert wear.age_kilocycles == pytest.approx(1.0, rel=1e-6)

    def test_gentler_erases_age_slower(self, profile):
        model = BlockEraseModel(profile, 11)
        wear = WearState()
        baseline = model.begin_erase(0.0).baseline_damage
        wear.record_erase(baseline * 0.5, baseline, cycles=1000)
        assert wear.age_kilocycles < 1.0
        assert wear.pec == 1000

    def test_residual_recorded(self, profile):
        wear = WearState()
        wear.record_erase(7.0, 7.0, residual_fail_bits=4000, nispe=2)
        assert wear.residual_fail_bits == 4000
        assert wear.residual_nispe == 2
