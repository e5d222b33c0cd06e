"""Garbage collection: greedy victim selection and job planning.

The paper's simulated SSD uses greedy GC (Table 2): the victim is the
closed block with the fewest valid pages, minimizing relocation work
per reclaimed block. A :class:`GcJob` captures everything the timed
simulator must replay: the page moves (read + program pairs) and the
erase operation with its scheme-specific segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.erase.scheme import EraseOperationResult
from repro.ftl.allocator import PlaneAllocator
from repro.nand.block import Block
from repro.nand.geometry import PageAddress, PlaneAddress


@dataclass(frozen=True)
class PageMove:
    """One valid-page relocation (GC read + GC program)."""

    lpn: int
    source: PageAddress
    destination: PageAddress


@dataclass
class GcJob:
    """A planned garbage collection of one victim block.

    State changes (mapping updates, erase physics) are already applied
    when the job is created; the timed simulator replays ``moves`` and
    then the erase segments in ``erase_result``.
    """

    plane: PlaneAddress
    victim: PageAddress  # page 0 of the victim block (block identity)
    moves: List[PageMove] = field(default_factory=list)
    erase_result: Optional[EraseOperationResult] = None
    #: True when the job was enqueued above normal GC priority because
    #: the plane's backlog forced it (the "can no longer delay" case).
    escalated: bool = False


class GreedyVictimSelector:
    """Pick the closed block with the fewest valid pages."""

    def select(self, allocator: PlaneAllocator) -> Optional[Block]:
        candidates = allocator.gc_candidates()
        if not candidates:
            return None
        return min(candidates, key=lambda block: (block.valid_count, block.address))
