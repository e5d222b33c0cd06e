"""Vectorized batch kernels: kernel-vs-object equivalence and state.

The contract under test: for every built-in scheme, the kernel engine's
lifetime trajectory agrees with the object engine's — bit-for-bit for
the schemes whose ladder is deterministic in the required-work draw
(baseline, DPES, i-ISPE, m-ISPE), and within a tight tolerance with the
same lifetime PEC for AERO (whose verify-noise draws come from a
kernel-local stream). Plus: the batch state mirrors Block objects, the
batched RBER/jitter helpers match their scalar counterparts, and the
kernel path is deterministic under a fixed seed.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES
from repro.kernels import BlockArrayState, kernel_for_scheme
from repro.lifetime import LifetimeSimulator, compare_schemes
from repro.nand.block import Block
from repro.nand.chip_types import TLC_2D_2XNM, TLC_3D_48L
from repro.nand.erase_model import BlockEraseModel
from repro.nand.geometry import BlockAddress
from repro.nand.rber import RberModel
from repro.schemes import make_scheme

PROFILES = (TLC_3D_48L, TLC_2D_2XNM)
#: Schemes whose batch kernel reproduces the object path exactly.
DETERMINISTIC_KEYS = ("baseline", "dpes", "iispe", "mispe")
#: Schemes with kernel-local verify noise (tolerance equivalence).
STOCHASTIC_KEYS = ("aero_cons", "aero")

SIM_KWARGS = dict(block_count=32, step=100, seed=11)


def _curves(profile, key, **overrides):
    kwargs = {**SIM_KWARGS, **overrides}
    obj = LifetimeSimulator(profile, key, engine="object", **kwargs).run()
    ker = LifetimeSimulator(profile, key, engine="kernel", **kwargs).run()
    return obj, ker


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("key", DETERMINISTIC_KEYS)
def test_deterministic_scheme_kernel_is_exact(profile, key):
    obj, ker = _curves(profile, key)
    assert obj.lifetime_pec == ker.lifetime_pec
    assert obj.pec_points == ker.pec_points
    np.testing.assert_allclose(ker.avg_mrber, obj.avg_mrber, atol=1e-9)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("key", STOCHASTIC_KEYS)
def test_aero_kernel_matches_within_tolerance(profile, key):
    obj, ker = _curves(profile, key)
    assert obj.lifetime_pec == ker.lifetime_pec
    assert obj.pec_points == ker.pec_points
    tolerance = 1.0 if key == "aero_cons" else 8.0
    delta = np.max(np.abs(np.array(obj.avg_mrber) - np.array(ker.avg_mrber)))
    assert delta < tolerance


@pytest.mark.parametrize("key", DETERMINISTIC_KEYS + STOCHASTIC_KEYS)
def test_kernel_engine_is_deterministic(key):
    first = LifetimeSimulator(
        TLC_3D_48L, key, engine="kernel", **SIM_KWARGS
    ).run()
    second = LifetimeSimulator(
        TLC_3D_48L, key, engine="kernel", **SIM_KWARGS
    ).run()
    assert first.lifetime_pec == second.lifetime_pec
    assert first.avg_mrber == second.avg_mrber


def test_aero_kernel_counters_sane():
    simulator = LifetimeSimulator(
        TLC_3D_48L, "aero", engine="kernel", **SIM_KWARGS
    )
    simulator.run(max_pec=2000)
    stats = simulator.kernel.stats
    assert stats.erases == 32 * (2000 // SIM_KWARGS["step"])
    assert stats.shallow_probes > 0
    assert stats.aggressive_accepts > 0
    assert stats.pulses_applied > 0
    assert stats.pulses_saved_vs_baseline > 0
    assert stats.injected_mispredictions == 0


def test_aero_cons_kernel_never_accepts():
    simulator = LifetimeSimulator(
        TLC_3D_48L, "aero_cons", engine="kernel", **SIM_KWARGS
    )
    simulator.run(max_pec=2000)
    assert simulator.kernel.stats.aggressive_accepts == 0


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("key", STOCHASTIC_KEYS)
def test_aero_kernel_felp_decisions_match_predictor(profile, key):
    """The batch kernel and ``FelpPredictor.predict`` read one FELP table,
    so they agree on every (loop, fail-bit count), past the last row and
    above FHIGH included."""
    scheme = make_scheme(profile, key)
    kernel = scheme.batch_kernel()
    fail_bits = np.arange(0, profile.f_high + 2 * profile.delta, 97)
    for loop in range(1, profile.max_loops + 2):
        pulses, reduced, aggressive = kernel._predict(loop, fail_bits)
        expected = [
            scheme.predictor.predict(loop, int(count), scheme.aggressive)
            for count in fail_bits
        ]
        assert pulses.tolist() == [p.pulses for p in expected]
        assert reduced.tolist() == [p.reduced for p in expected]
        assert aggressive.tolist() == [p.aggressive for p in expected]


def test_kernel_misprediction_injection_counts():
    simulator = LifetimeSimulator(
        TLC_3D_48L, "aero", engine="kernel", mispredict_rate=0.2, **SIM_KWARGS
    )
    simulator.run(max_pec=2000)
    stats = simulator.kernel.stats
    assert stats.injected_mispredictions > 0
    assert stats.mispredictions > 0


def test_engine_validation_and_fallback(isolated_registries):
    with pytest.raises(ConfigError):
        LifetimeSimulator(TLC_3D_48L, "baseline", engine="warp")

    from repro.erase.ispe import BaselineIspeScheme

    class KernellessScheme(BaselineIspeScheme):
        """Third-party-style scheme: base-class (None) batch_kernel."""

        name = "kernelless"

        def batch_kernel(self):
            return None

    @SCHEMES.register("kernelless")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return KernellessScheme(profile)

    with pytest.raises(ConfigError):
        LifetimeSimulator(TLC_3D_48L, "kernelless", engine="kernel")
    # auto falls back to the object path and still runs.
    simulator = LifetimeSimulator(
        TLC_3D_48L, "kernelless", block_count=4, step=200, engine="auto"
    )
    assert simulator.kernel is None
    assert simulator.run(max_pec=400).pec_points


def test_every_engine_entry_point_gives_one_message():
    from repro.campaign import CampaignSpec
    from repro.experiments import ExperimentSpec
    from repro.harness import run_workload_cell
    from repro.kernels import resolve_kernel
    from repro.lifetime import LifetimeSpec
    from repro.lifetime.spec import _resolved_engine

    entry_points = (
        lambda: ExperimentSpec(engine="warp"),
        lambda: CampaignSpec(engine="warp"),
        lambda: LifetimeSpec(engine="warp"),
        lambda: _resolved_engine("aero", TLC_3D_48L.name, "warp"),
        lambda: resolve_kernel(make_scheme(TLC_3D_48L, "aero"), "warp"),
        lambda: run_workload_cell("aero", 500, "hm", requests=40,
                                  engine="warp"),
    )
    messages = []
    for call in entry_points:
        with pytest.raises(ConfigError) as excinfo:
            call()
        messages.append(str(excinfo.value))
    assert messages == [
        "unknown engine 'warp'; choose from auto, object, kernel"
    ] * len(entry_points)


def test_kernel_for_scheme_resolution():
    for key in DETERMINISTIC_KEYS + STOCHASTIC_KEYS:
        scheme = make_scheme(TLC_3D_48L, key)
        kernel = kernel_for_scheme(scheme)
        assert kernel is not None
        assert kernel.scheme_key in (key, scheme.name)
    assert kernel_for_scheme(object()) is None


def _fresh_blocks(profile, count, seed):
    return [
        Block(
            address=BlockAddress(0, 0, 0, index),
            profile=profile,
            pages=4,
            seed=seed + index,
        )
        for index in range(count)
    ]


def test_block_array_state_mirrors_blocks():
    blocks = _fresh_blocks(TLC_3D_48L, 8, seed=5)
    blocks[3].wear.age_kilocycles = 2.5
    blocks[3].wear.pec = 2500
    blocks[5].wear.residual_fail_bits = 700
    blocks[5].wear.residual_nispe = 3
    state = BlockArrayState.from_blocks(blocks)
    assert state.count == len(state) == 8
    for index, block in enumerate(blocks):
        assert state.base[index] == block.erase_model.base
        assert state.rate[index] == block.erase_model.rate
        assert state.sensitivity[index] == pytest.approx(
            block.rber_sensitivity
        )
        assert state.age[index] == block.wear.age_kilocycles
        assert state.pec[index] == block.wear.pec
        assert state.residual_fail_bits[index] == block.wear.residual_fail_bits
        assert state.residual_nispe[index] == block.wear.residual_nispe


def test_block_array_required_pulses_matches_objects():
    seed = 9
    state = BlockArrayState.from_blocks(_fresh_blocks(TLC_3D_48L, 6, seed))
    mirror = _fresh_blocks(TLC_3D_48L, 6, seed)
    for _ in range(70):  # crosses a jitter-buffer refill boundary
        batch = state.required_pulses()
        scalar = [
            block.erase_model.required_pulses(block.wear.age_kilocycles)
            for block in mirror
        ]
        assert batch.tolist() == scalar


def test_jitter_batch_consumes_stream_like_scalars():
    from repro.nand.erase_model import ERASE_JITTER_STD
    from repro.rng import derive, make_rng

    model = BlockEraseModel(TLC_3D_48L, 123, "jitter-test")
    batch = model.jitter_batch(16)
    stream = make_rng(derive(123, "erase-jitter", "jitter-test"))
    scalars = [
        float(stream.normal(0.0, ERASE_JITTER_STD)) for _ in range(16)
    ]
    np.testing.assert_array_equal(batch, scalars)


def test_mrber_batch_matches_scalar_model():
    from repro.nand.erase_model import WearState

    model = RberModel(TLC_3D_48L)
    wear_states = [
        WearState(),
        WearState(age_kilocycles=3.2, pec=3200),
        WearState(age_kilocycles=5.0, pec=5000,
                  residual_fail_bits=900, residual_nispe=2),
        WearState(age_kilocycles=1.0, pec=1000,
                  residual_fail_bits=50, residual_nispe=1),
    ]
    extra = np.array([0.0, 13.0, 0.0, 2.0])
    sensitivity = np.array([1.0, 0.8, 1.3, 1.0])
    batch = model.mrber_batch(
        np.array([w.age_kilocycles for w in wear_states]),
        np.array([w.residual_fail_bits for w in wear_states]),
        np.array([w.residual_nispe for w in wear_states]),
        extra_rber=extra,
        sensitivity=sensitivity,
    )
    for index, wear in enumerate(wear_states):
        sample = model.mrber(
            wear, extra_rber=extra[index], sensitivity=sensitivity[index]
        )
        assert batch.wear[index] == pytest.approx(sample.wear, abs=1e-12)
        assert batch.retention[index] == pytest.approx(
            sample.retention, abs=1e-12
        )
        assert batch.under_erase_penalty[index] == pytest.approx(
            sample.under_erase_penalty, abs=1e-12
        )
        assert batch.total[index] == pytest.approx(sample.total, abs=1e-12)


def test_erase_latency_cdf_kernel_matches_object():
    from collections import Counter

    from repro.characterization import TestPlatform
    from repro.characterization.experiments import erase_latency_cdf
    from repro.erase.mispe import MIspeScheme
    from repro.rng import derive_rng

    platform = TestPlatform(TLC_3D_48L, chips=4, blocks_per_chip=10, seed=2)
    kernel = erase_latency_cdf(
        platform, pec_points=(0, 3000), blocks_per_point=40
    )
    # The object reference: per-block m-ISPE measurements of the same
    # sampled blocks.
    scheme = MIspeScheme(platform.profile)
    rng = derive_rng(platform.seed, "fig4")
    for pec in (0, 3000):
        measurements = [
            scheme.measure(block, rng)
            for block in platform.sample_blocks(pec, 40)
        ]
        assert kernel.nispe_histogram[pec] == Counter(
            measurement.nispe for measurement in measurements
        )
        np.testing.assert_allclose(
            kernel.mtbers_ms[pec],
            sorted(m.min_t_bers_us / 1000.0 for m in measurements),
            atol=1e-9,
        )


def test_failbit_linearity_kernel_fits_regularities():
    from repro.characterization import TestPlatform
    from repro.characterization.experiments import failbit_linearity

    platform = TestPlatform(TLC_3D_48L, chips=4, blocks_per_chip=10, seed=2)
    result = failbit_linearity(
        platform, pec_points=(3000, 4000), blocks_per_point=40
    )
    profile = platform.profile
    assert abs(result.overall.delta - profile.delta) / profile.delta < 0.2
    assert abs(result.overall.gamma - profile.gamma) / profile.gamma < 0.4


def test_compare_schemes_kernel_engine_end_to_end():
    comparison = compare_schemes(
        TLC_3D_48L,
        scheme_keys=("baseline", "aero"),
        block_count=16,
        step=100,
        seed=4,
        engine="kernel",
    )
    assert comparison.lifetime("aero") > comparison.lifetime("baseline")
