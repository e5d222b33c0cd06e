"""Virtual chip-testing platform.

Stand-in for the paper's FPGA-based test infrastructure: a population
of virtual chips whose blocks can be sampled at any P/E-cycle point
(blocks are "pre-cycled" with Baseline ISPE, under which wear age
equals PEC/1000 by construction), erased with pulse-granular control,
and read for MRBER after the reference retention time. Identical block
*clones* can be produced for paired experiments (erase the same block
completely vs insufficiently, Figure 10).
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.geometry import BlockAddress
from repro.nand.rber import RberModel
from repro.rng import derive_rng


class TestPlatform:
    """A population of virtual test blocks across virtual chips.

    ``chips * blocks_per_chip`` blocks are addressable; the paper's
    main study uses 160 chips x 120 blocks = 19,200 blocks. The
    temperature controller is implicit: retention is applied through
    the RBER model's reference 1-year retention term.
    """

    #: Not a test case, though pytest collects ``Test*`` classes that
    #: test modules import.
    __test__ = False

    #: Pages per test block (only relevant for program/read bookkeeping).
    PAGES_PER_BLOCK = 64

    def __init__(
        self,
        profile: ChipProfile,
        chips: int = 16,
        blocks_per_chip: int = 30,
        seed: int = 0xAE20,
    ):
        if chips <= 0 or blocks_per_chip <= 0:
            raise ConfigError("platform needs at least one chip and block")
        self.profile = profile
        self.chips = chips
        self.blocks_per_chip = blocks_per_chip
        self.seed = seed
        self.rber = RberModel(profile)
        self.rng = derive_rng(seed, "platform", profile.name)
        self._draws: dict = {}  # the clones' per-block draws

    @property
    def block_count(self) -> int:
        return self.chips * self.blocks_per_chip

    # --- block sampling ----------------------------------------------------------

    def block_at(self, index: int, pec: int) -> Block:
        """A fresh clone of test block ``index``, pre-cycled to ``pec``.

        Clones of the same index share their process-variation draw
        (same physical block), so paired treatments are possible; the
        pre-cycling is Baseline ISPE, under which wear age is exactly
        ``pec / 1000`` kilocycles.
        """
        if not 0 <= index < self.block_count:
            raise ConfigError(f"block index {index} outside platform")
        chip, block = divmod(index, self.blocks_per_chip)
        address = BlockAddress(channel=0, chip=chip, plane=0, block=block)
        clone = Block(
            address=address,
            profile=self.profile,
            pages=self.PAGES_PER_BLOCK,
            seed=self.seed,
            draws=self._draws,
        )
        clone.wear.age_kilocycles = pec / 1000.0
        clone.wear.pec = pec
        return clone

    def sample_blocks(self, pec: int, count: int) -> List[Block]:
        """Evenly sample ``count`` pre-cycled blocks across all chips."""
        if count <= 0:
            raise ConfigError("sample count must be positive")
        count = min(count, self.block_count)
        stride = max(1, self.block_count // count)
        return [
            self.block_at(index, pec)
            for index in range(0, stride * count, stride)
        ]

    # --- measurements ----------------------------------------------------------------

    def measure_mrber(self, block: Block, extra_rber: float = 0.0) -> float:
        """MRBER of ``block`` after the reference 1-year retention bake."""
        return self.rber.mrber(
            block.wear,
            extra_rber=extra_rber,
            sensitivity=block.rber_sensitivity,
        ).total
