"""NAND chip: one die's planes and its operation timing.

The FTL programs and erases the chip's :class:`Block`s directly and the
erase schemes drive each block's :class:`EraseState`; *when* those
operations elapse is the SSD simulator's business, which reads the
chip's :class:`NandTiming`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import AddressError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.geometry import BlockAddress, PlaneAddress
from repro.nand.plane import Plane
from repro.nand.timing import NandTiming


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
