"""Static wear leveling.

Keeps the P/E spread across blocks bounded: when the gap between the
most- and least-cycled blocks exceeds a threshold, the least-cycled
closed block (cold data that never gets invalidated, hence never
GC-picked) is forced to be the next GC victim, releasing it into write
rotation. This is the classic threshold-based static wear leveler
(Murugan & Du, MSST'11 [26]); the AERO paper assumes such a leveler
exists but does not study it, so the implementation favors clarity.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.ftl.allocator import PlaneAllocator
from repro.nand.block import Block


class WearLeveler:
    """Threshold-based static wear leveling over one plane."""

    def __init__(self, pec_gap_threshold: int = 256):
        if pec_gap_threshold <= 0:
            raise ConfigError("wear-leveling threshold must be positive")
        self.pec_gap_threshold = pec_gap_threshold
        self.interventions = 0

    def pick_cold_victim(self, allocator: PlaneAllocator) -> Optional[Block]:
        """Return a cold block to recycle, or None if wear is balanced."""
        blocks = allocator.all_blocks
        if len(blocks) < 2:
            return None
        min_pec = min(b.wear.pec for b in blocks)
        max_pec = max(b.wear.pec for b in blocks)
        if max_pec - min_pec <= self.pec_gap_threshold:
            return None
        candidates = [
            b for b in allocator.gc_candidates()
            if b.wear.pec <= min_pec + self.pec_gap_threshold // 4
        ]
        if not candidates:
            return None
        self.interventions += 1
        return min(candidates, key=lambda b: (b.wear.pec, b.address))
