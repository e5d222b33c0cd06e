"""Plane: a bank of blocks sharing one set of page buffers."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import AddressError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.geometry import PlaneAddress


class Plane:
    """One plane of a chip; owns its blocks.

    Planes matter to the SSD layer because commands on different planes
    of one chip can proceed concurrently under multi-plane operation
    constraints; for the device model the plane is a container.
    """

    def __init__(
        self,
        address: PlaneAddress,
        profile: ChipProfile,
        blocks: int,
        pages_per_block: int,
        seed: int,
        draws: Optional[dict] = None,
    ):
        self.address = address
        self.profile = profile
        self.blocks: List[Block] = [
            Block(
                address=_block_address(address, index),
                profile=profile,
                pages=pages_per_block,
                seed=seed,
                draws=draws,
            )
            for index in range(blocks)
        ]

    def block(self, index: int) -> Block:
        """Block ``index`` of this plane."""
        if not 0 <= index < len(self.blocks):
            raise AddressError(f"block {index} outside plane {self.address}")
        return self.blocks[index]

    def __iter__(self):
        return iter(self.blocks)


def _block_address(plane: PlaneAddress, block: int):
    from repro.nand.geometry import BlockAddress

    return BlockAddress(plane.channel, plane.chip, plane.plane, block)
