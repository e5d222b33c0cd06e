"""Characterization campaign drivers (Section 5 virtual experiments)."""

import pytest

from repro.characterization import (
    TestPlatform,
    erase_latency_cdf,
    failbit_linearity,
    felp_accuracy,
    reliability_margin,
    shallow_erasure_sweep,
)
from repro.characterization.fitting import fit_gamma_delta
from repro.errors import ConfigError
from repro.nand.chip_types import TLC_3D_48L


@pytest.fixture(scope="module")
def platform():
    return TestPlatform(TLC_3D_48L, chips=6, blocks_per_chip=12, seed=99)


class TestPlatformFixture:
    def test_clones_share_physics(self, platform):
        a = platform.block_at(5, 1000)
        b = platform.block_at(5, 1000)
        assert a.erase_model.base == b.erase_model.base
        assert a.erase_model.rate == b.erase_model.rate
        assert a is not b

    def test_pre_cycling_sets_age(self, platform):
        block = platform.block_at(0, 2500)
        assert block.wear.age_kilocycles == pytest.approx(2.5)
        assert block.wear.pec == 2500

    def test_sampling_bounds(self, platform):
        with pytest.raises(ConfigError):
            platform.block_at(platform.block_count, 0)
        with pytest.raises(ConfigError):
            platform.sample_blocks(0, 0)
        blocks = platform.sample_blocks(0, 10)
        assert len(blocks) == 10


class TestFigure4:
    def test_cdf_key_observations(self, platform):
        result = erase_latency_cdf(
            platform, pec_points=(0, 1000, 2000, 3000), blocks_per_point=50
        )
        assert result.max_loops(0) == 1
        assert result.min_loops(2000) >= 2
        assert 0.5 <= result.single_loop_fraction(1000) <= 1.0
        # >70 % of fresh blocks erase within 2.5 ms + VR overhead.
        assert result.fraction_below_ms(0, 2.7) >= 0.6
        # Latency spread grows with wear.
        assert result.std_ms(3000) > result.std_ms(0)


class TestFigure7:
    def test_linearity_recovers_gamma_delta(self, platform):
        result = failbit_linearity(
            platform, pec_points=(2000, 3500), blocks_per_point=40
        )
        profile = platform.profile
        assert result.overall.delta == pytest.approx(profile.delta, rel=0.15)
        assert result.overall.gamma == pytest.approx(profile.gamma, rel=0.3)
        assert result.overall.r_squared > 0.9

    def test_consistency_across_nispe(self, platform):
        """Paper: the same delta in all NISPE panels."""
        result = failbit_linearity(
            platform, pec_points=(2000, 3000, 4000), blocks_per_point=40
        )
        deltas = [fit.delta for fit in result.fits.values()]
        assert len(deltas) >= 2
        assert max(deltas) / min(deltas) < 1.4

    def test_series_decrease_with_tep(self, platform):
        result = failbit_linearity(platform, pec_points=(3000,), blocks_per_point=30)
        for nispe, series in result.series.items():
            values = [v for _, v in series]
            if len(values) >= 2:
                assert values[0] > values[-1]


class TestFigure8:
    def test_majority_concentration(self, platform):
        """Paper: >=66 % of each range needs the same mtEP."""
        result = felp_accuracy(
            platform, pec_points=(1000, 2000, 3000, 4000), blocks_per_point=50
        )
        for nispe in result.joint:
            assert result.majority_fraction(nispe) >= 0.55

    def test_table1_fully_covers_samples(self, platform):
        """No sample requires more pulses than the published t1."""
        result = felp_accuracy(
            platform, pec_points=(1000, 2000, 3000, 4000), blocks_per_point=50
        )
        assert result.conservative_coverage(platform.profile) >= 0.995


class TestFigure9:
    def test_shallow_probe_enables_reduction(self, platform):
        result = shallow_erasure_sweep(
            platform, tse_pulses_options=(2,), pec_points=(100, 500),
            blocks_per_point=60,
        )
        for key, fraction in result.reduced_fraction.items():
            assert fraction >= 0.6  # paper: 80-88 %
        for key, tbers in result.avg_tbers_ms.items():
            assert 2.0 <= tbers <= 3.4  # paper: 2.5-2.9 ms

    def test_tse_sweep_bounds(self, platform):
        with pytest.raises(ConfigError):
            shallow_erasure_sweep(platform, tse_pulses_options=(7,))


class TestFigure10:
    @pytest.fixture(scope="class")
    def margin(self, platform):
        return reliability_margin(platform, blocks_per_point=50)

    def test_complete_erase_monotonic_in_nispe(self, margin):
        values = [margin.complete_max[n] for n in sorted(margin.complete_max)]
        assert values == sorted(values)

    def test_complete_erase_leaves_margin(self, margin):
        """Figure 10a: positive margin for all NISPE up to ~47 bits."""
        assert margin.complete_max[1] <= margin.requirement
        margin_n1 = margin.requirement - margin.complete_max[1]
        assert 25 <= margin_n1 <= 50

    def test_safe_conditions_match_c1_c2(self, margin):
        """C1 (N<=3, F<delta) and C2 (N=4, F<gamma) are safe.

        (3, 1) sits on the knife edge in our model (the paper's own
        margin there is a few bits); we require it to be within a few
        bits of the requirement rather than strictly under it — see
        EXPERIMENTS.md for the recorded deviation.
        """
        safe = set(margin.safe_conditions())
        for condition in [(2, 0), (2, 1), (3, 0), (4, 0)]:
            assert condition in safe
        assert margin.insufficient_max[(3, 1)] <= margin.requirement + 5
        # Deeper under-erasure at N=4 and mid ranges at high N are not safe.
        assert (4, 2) not in safe
        assert (5, 1) not in safe
        assert (2, 3) not in safe


class TestFitting:
    def test_fit_rejects_insufficient_data(self):
        with pytest.raises(ConfigError):
            fit_gamma_delta([[100]])
