"""NAND flash device model.

This package is the substitute for the paper's 160 real 3D TLC chips: a
statistical device model that reproduces the erase characteristics the
authors measured (Figures 4 and 7-11): per-block page state, the
pulse-granular erase physics with its fail-bit readout, the RBER model
and the datasheet timing the SSD model schedules with.
"""

from repro.nand.geometry import (
    BlockAddress,
    NandGeometry,
    PageAddress,
    PlaneAddress,
)
from repro.nand.chip_types import (
    ChipProfile,
    MLC_3D_48L,
    TLC_2D_2XNM,
    TLC_3D_48L,
    profile_by_name,
)
from repro.nand.erase_model import BlockEraseModel, EraseState
from repro.nand.timing import NandTiming
from repro.nand.rber import RberModel, RberSample
from repro.nand.block import Block, PageState
from repro.nand.plane import Plane
from repro.nand.chip import NandChip

__all__ = [
    "Block",
    "BlockAddress",
    "BlockEraseModel",
    "ChipProfile",
    "EraseState",
    "MLC_3D_48L",
    "NandChip",
    "NandGeometry",
    "NandTiming",
    "PageAddress",
    "PageState",
    "Plane",
    "PlaneAddress",
    "RberModel",
    "RberSample",
    "TLC_2D_2XNM",
    "TLC_3D_48L",
    "profile_by_name",
]
