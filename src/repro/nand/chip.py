"""NAND chip: command surface over planes/blocks.

The chip computes operation latencies and mutates block state; *when*
those latencies elapse is the SSD simulator's business (the chip is
used both by the event-driven SSD model and by the characterization
platform, which doesn't care about wall-clock interleaving).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import AddressError, CommandError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.features import FeatureRegisterFile
from repro.nand.geometry import BlockAddress, PageAddress, PlaneAddress
from repro.nand.plane import Plane
from repro.nand.timing import NandTiming
from repro.rng import derive_rng


class NandChip:
    """One NAND die with ``planes_per_chip`` planes."""

    def __init__(
        self,
        channel: int,
        chip: int,
        profile: ChipProfile,
        planes: int,
        blocks_per_plane: int,
        pages_per_block: int,
        seed: int,
        draws: Optional[dict] = None,
    ):
        self.channel = channel
        self.chip = chip
        self.profile = profile
        self.timing = NandTiming.from_profile(profile)
        self.features = FeatureRegisterFile(
            default_pulse_quanta=profile.pulses_per_loop
        )
        self.rng: np.random.Generator = derive_rng(seed, "chip", channel, chip)
        self.planes: List[Plane] = [
            Plane(
                address=PlaneAddress(channel, chip, plane),
                profile=profile,
                blocks=blocks_per_plane,
                pages_per_block=pages_per_block,
                seed=seed,
                draws=draws,
            )
            for plane in range(planes)
        ]

    # --- addressing -------------------------------------------------------------

    def plane(self, index: int) -> Plane:
        if not 0 <= index < len(self.planes):
            raise AddressError(f"plane {index} outside chip ch{self.channel}/{self.chip}")
        return self.planes[index]

    def block(self, address: BlockAddress) -> Block:
        """Resolve a block address to its stateful block."""
        if address.channel != self.channel or address.chip != self.chip:
            raise AddressError(f"{address} does not belong to this chip")
        return self.plane(address.plane).block(address.block)

    def iter_blocks(self):
        """Yield every block of the chip."""
        for plane in self.planes:
            yield from plane

    # --- basic operations ----------------------------------------------------------

    def read_page(self, address: PageAddress) -> float:
        """Sense one page; returns ``tR`` (us)."""
        block = self.block(address.block_address)
        block.check_readable(address.page)
        return self.timing.t_r_us

    def program_page(self, address: PageAddress, lpn: int | None = None) -> float:
        """Program the next in-order page of the addressed block.

        The caller must target the block's current write pointer
        (NAND programs pages sequentially within a block).
        Returns ``tPROG`` (us).
        """
        block = self.block(address.block_address)
        if address.page != block.write_pointer:
            raise CommandError(
                f"out-of-order program: page {address.page}, "
                f"write pointer {block.write_pointer}"
            )
        block.program(lpn)
        return self.timing.t_prog_us

    # --- erase primitives (used by erase schemes) -------------------------------------

    def erase_pulse(self, block: Block, state, loop: int, pulses: int) -> float:
        """One erase-pulse step at ladder loop ``loop``; returns duration (us)."""
        if loop != state.loop:
            state.start_loop(loop)
            self.features.latch_erase_loop(loop)
        state.apply_pulses(pulses)
        return self.timing.erase_pulse_us(pulses)

    def verify_read(self, block: Block, state) -> tuple[float, int]:
        """One verify-read step; returns ``(tVR, fail_bits)``."""
        fail_bits = state.verify_read(self.rng)
        self.features.latch_verify_read(fail_bits)
        return self.timing.t_vr_us, fail_bits
