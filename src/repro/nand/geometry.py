"""NAND geometry and physical addressing.

Mirrors the hierarchy in Figure 1a of the paper and the simulated SSD
configuration in Table 2: an SSD has channels, each channel has chips,
each chip has planes, each plane has blocks, each block has pages (one
page per wordline per bit-level; we address pages directly, as the FTL
does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError, ConfigError
from repro.units import KIB


@dataclass(frozen=True)
class NandGeometry:
    """Static shape of one SSD's flash array.

    Defaults mirror Table 2 of the paper (1024 GB SSD: 8 channels x
    2 chips x 4 planes x 497 blocks x 2,112 pages x 16 KiB pages).
    Tests and examples use scaled-down geometries; all invariants are
    shape-independent.
    """

    channels: int = 8
    chips_per_channel: int = 2
    planes_per_chip: int = 4
    blocks_per_plane: int = 497
    pages_per_block: int = 2112
    page_size: int = 16 * KIB

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "planes_per_chip",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"geometry field {name!r} must be positive")

    # --- derived counts ----------------------------------------------------

    @property
    def chips(self) -> int:
        """Total chips in the SSD."""
        return self.channels * self.chips_per_channel

    @property
    def planes(self) -> int:
        """Total planes in the SSD."""
        return self.chips * self.planes_per_chip

    @property
    def blocks(self) -> int:
        """Total blocks in the SSD."""
        return self.planes * self.blocks_per_plane

    @property
    def pages(self) -> int:
        """Total physical pages in the SSD."""
        return self.blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity in bytes (before overprovisioning)."""
        return self.pages * self.page_size

    # --- address validation --------------------------------------------------

    def check_block(self, addr: "BlockAddress") -> None:
        """Raise :class:`AddressError` if ``addr`` is outside this geometry."""
        if not (
            0 <= addr.channel < self.channels
            and 0 <= addr.chip < self.chips_per_channel
            and 0 <= addr.plane < self.planes_per_chip
            and 0 <= addr.block < self.blocks_per_plane
        ):
            raise AddressError(f"block address {addr} outside geometry {self}")

    # --- address indexing ------------------------------------------------------

    def block_index(self, addr: "BlockAddress") -> int:
        """Dense [0, blocks) index for a block address."""
        self.check_block(addr)
        per_chip = self.planes_per_chip * self.blocks_per_plane
        per_channel = self.chips_per_channel * per_chip
        return (
            addr.channel * per_channel
            + addr.chip * per_chip
            + addr.plane * self.blocks_per_plane
            + addr.block
        )

@dataclass(frozen=True, order=True)
class PlaneAddress:
    """Address of one plane within the SSD."""

    channel: int
    chip: int
    plane: int

    def __str__(self) -> str:
        return f"ch{self.channel}/chip{self.chip}/pl{self.plane}"


@dataclass(frozen=True, order=True)
class BlockAddress:
    """Address of one erase block within the SSD."""

    channel: int
    chip: int
    plane: int
    block: int

    def page(self, page: int) -> "PageAddress":
        """Address of page ``page`` within this block."""
        return PageAddress(self.channel, self.chip, self.plane, self.block, page)

    def __str__(self) -> str:
        return f"ch{self.channel}/chip{self.chip}/pl{self.plane}/blk{self.block}"


@dataclass(frozen=True, order=True)
class PageAddress:
    """Address of one physical page within the SSD."""

    channel: int
    chip: int
    plane: int
    block: int
    page: int

    @property
    def block_address(self) -> BlockAddress:
        return BlockAddress(self.channel, self.chip, self.plane, self.block)

    def __str__(self) -> str:
        return (
            f"ch{self.channel}/chip{self.chip}/pl{self.plane}"
            f"/blk{self.block}/pg{self.page}"
        )
