"""Assemble a simulated SSD at a given wear point.

The paper evaluates every scheme at fixed P/E-cycle setpoints (0.5K,
2.5K, 4.5K); the builder ages every block to the setpoint (with small
block-to-block jitter), warms up scheme-internal state (i-ISPE's
memorized loop counts), and wires chips, FTL, and scheme together.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SsdSpec
from repro.core.aero import AeroEraseScheme
from repro.erase.iispe import IntelligentIspeScheme
from repro.experiments.registry import SCHEMES
from repro.ftl.aeroftl import AeroFtl
from repro.ftl.ftl import PageLevelFtl
from repro.nand.chip import NandChip
from repro.rng import derive_rng
from repro.ssd.ssd import Ssd


def build_ssd(
    spec: SsdSpec,
    scheme_key: str = "aero",
    pec_setpoint: int = 0,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
    draws: Optional[dict] = None,
    **scheme_params,
) -> Ssd:
    """Build an SSD whose blocks sit at ``pec_setpoint`` P/E cycles.

    ``scheme_key`` resolves through the scheme registry
    (:data:`repro.experiments.SCHEMES`), so registered plugin schemes
    build the same way as the six built-ins; extra keyword arguments
    are passed through to the scheme factory. ``draws`` is the per-block
    draw table of the drives of ``spec`` that its owner builds again
    (see :class:`~repro.nand.erase_model.BlockEraseModel`).
    """
    geometry = spec.geometry
    chips = [
        NandChip(
            channel=channel,
            chip=chip,
            profile=spec.profile,
            planes=geometry.planes_per_chip,
            blocks_per_plane=geometry.blocks_per_plane,
            pages_per_block=geometry.pages_per_block,
            seed=spec.seed,
            draws=draws,
        )
        for channel in range(geometry.channels)
        for chip in range(geometry.chips_per_channel)
    ]
    scheme = SCHEMES.create(
        scheme_key,
        spec.profile,
        mispredict_rate=mispredict_rate,
        rber_requirement=rber_requirement,
        **scheme_params,
    )
    _age_blocks(chips, pec_setpoint, spec.seed)
    if isinstance(scheme, IntelligentIspeScheme):
        _warm_up_iispe(scheme, chips)
    rng = derive_rng(spec.seed, "ftl", scheme_key, pec_setpoint)
    if isinstance(scheme, AeroEraseScheme):
        ftl: PageLevelFtl = AeroFtl(spec, chips, scheme, rng)
    else:
        ftl = PageLevelFtl(spec, chips, scheme, rng)
    return Ssd(spec=spec, chips=chips, ftl=ftl, scheme=scheme)


def _age_blocks(chips, pec_setpoint: int, seed: int) -> None:
    """Set every block's wear to the setpoint (±2 % jitter)."""
    if pec_setpoint <= 0:
        return
    rng = derive_rng(seed, "aging", pec_setpoint)
    for chip in chips:
        for block in chip.iter_blocks():
            jitter = float(rng.normal(1.0, 0.02))
            block.wear.age_kilocycles = max(0.0, pec_setpoint * jitter) / 1000.0
            block.wear.pec = pec_setpoint


def _warm_up_iispe(scheme: IntelligentIspeScheme, chips) -> None:
    """Seed i-ISPE's per-block memory with the current loop counts.

    At a wear setpoint the drive has been running for thousands of
    cycles; i-ISPE's table would long since reflect each block's
    NISPE, so the builder initializes it rather than starting cold.
    """
    for chip in chips:
        for block in chip.iter_blocks():
            loops = block.erase_model.nispe(block.wear.age_kilocycles)
            scheme._memorized_loop[block.address] = loops
