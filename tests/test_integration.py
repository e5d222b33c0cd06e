"""End-to-end integration: characterization -> EPT -> FTL -> SSD replay.

Exercises the full pipeline a user of the library would run: derive the
erase-timing model from a virtual characterization campaign, build an
AERO SSD with it, replay a workload, and check the cross-module
invariants hold at every seam.
"""

import pytest

from repro.characterization import TestPlatform, felp_accuracy
from repro.config import SsdSpec
from repro.core.aero import AeroEraseScheme
from repro.core.ept import (
    build_aggressive_table,
    build_conservative_table,
    published_conservative_table,
)
from repro.core.felp import FelpPredictor
from repro.experiments.registry import WORKLOADS
from repro.ftl.aeroftl import AeroFtl
from repro.nand.chip import NandChip
from repro.nand.chip_types import TLC_3D_48L
from repro.schemes import SCHEME_KEYS, make_scheme
from repro.ssd.builder import build_ssd
from repro.workloads import SyntheticTraceGenerator


def test_characterization_to_ept_to_ssd():
    """The paper's deployment flow, end to end."""
    profile = TLC_3D_48L
    # 1. Characterize (Section 5): collect FELP samples.
    platform = TestPlatform(profile, chips=4, blocks_per_chip=10, seed=3)
    accuracy = felp_accuracy(
        platform, pec_points=(1000, 2500, 4000), blocks_per_point=40
    )
    assert len(accuracy.samples) > 50
    # 2. Build the EPT from the campaign (Table 1 methodology).
    conservative = build_conservative_table(profile, accuracy.samples)
    aggressive = build_aggressive_table(profile, conservative)
    predictor = FelpPredictor(profile, conservative, aggressive)
    # 3. Assemble an SSD whose AERO scheme uses the derived tables.
    spec = SsdSpec.small_test(seed=50)
    geometry = spec.geometry
    chips = [
        NandChip(channel, chip, profile, geometry.planes_per_chip,
                 geometry.blocks_per_plane, geometry.pages_per_block, spec.seed)
        for channel in range(geometry.channels)
        for chip in range(geometry.chips_per_channel)
    ]
    scheme = AeroEraseScheme(profile, predictor=predictor, aggressive=True)
    ftl = AeroFtl(spec, chips, scheme)
    from repro.ssd.ssd import Ssd

    ssd = Ssd(spec, chips, ftl, scheme)
    ssd.precondition(footprint_pages=int(spec.logical_pages * 0.85))
    # 4. Replay a workload and verify consistency + AERO activity.
    generator = SyntheticTraceGenerator(
        WORKLOADS.resolve("stg"), footprint_bytes=int(spec.logical_bytes * 0.8),
        seed=60,
    )
    report = ssd.run_trace(generator.generate(300))
    assert report.requests_completed == 300
    ftl.check_consistency()
    assert scheme.stats.erases > 0
    assert ftl.get_feature_commands > 0


@pytest.mark.parametrize("key", SCHEME_KEYS)
def test_every_scheme_replays_cleanly(key):
    spec = SsdSpec.small_test(seed=123)
    ssd = build_ssd(spec, key, pec_setpoint=1500)
    ssd.precondition(footprint_pages=int(spec.logical_pages * 0.85))
    generator = SyntheticTraceGenerator(
        WORKLOADS.resolve("hm"), footprint_bytes=int(spec.logical_bytes * 0.8),
        seed=7,
    )
    report = ssd.run_trace(generator.generate(250))
    assert report.requests_completed == 250
    assert report.scheme == make_scheme(spec.profile, key).name
    ssd.ftl.check_consistency()


def test_replay_is_deterministic():
    def run():
        spec = SsdSpec.small_test(seed=999)
        ssd = build_ssd(spec, "aero", pec_setpoint=2500)
        ssd.precondition(footprint_pages=int(spec.logical_pages * 0.8))
        generator = SyntheticTraceGenerator(
            WORKLOADS.resolve("prxy"),
            footprint_bytes=int(spec.logical_bytes * 0.75),
            seed=3,
        )
        report = ssd.run_trace(generator.generate(300))
        return (
            report.reads.mean_us,
            report.writes.mean_us,
            report.erases,
            report.makespan_us,
        )

    assert run() == run()


def test_wear_accumulates_across_runs():
    """Device state persists across measured windows."""
    spec = SsdSpec.small_test(seed=31)
    ssd = build_ssd(spec, "baseline", pec_setpoint=0)
    ssd.precondition(footprint_pages=int(spec.logical_pages * 0.9))
    generator = SyntheticTraceGenerator(
        WORKLOADS.resolve("ali.A"), footprint_bytes=int(spec.logical_bytes * 0.85),
        seed=13,
    )
    before = max(b.wear.pec for c in ssd.chips for b in c.iter_blocks())
    ssd.run_trace(generator.generate(200))
    after = max(b.wear.pec for c in ssd.chips for b in c.iter_blocks())
    assert after > before
