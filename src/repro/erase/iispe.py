"""i-ISPE: intelligent ISPE (Lee et al., IMW 2011 [16]).

Tracks each block's most recent loop count ``NISPE`` and, on the next
erase, jumps straight to ``EP(NISPE)``, skipping the earlier
lower-voltage loops. On 2D floating-gate chips the memorized final
voltage reliably erases the block in a single loop; on 3D charge-trap
chips the jump earns only partial voltage credit (Section 3.3 of the
paper), so erase failures become frequent as PEC grows — each failure
escalates to a voltage *above* what conventional ISPE would have used,
inflicting extra stress. This is the mechanism behind i-ISPE's 25 %
lifetime *loss* in Figure 13.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.erase.scheme import EraseOperationResult, EraseScheme
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import EraseState
from repro.nand.geometry import BlockAddress

#: Ladder headroom past the datasheet loop budget: on an erase failure
#: at the memorized voltage the chip keeps stepping VERASE up, beyond
#: what conventional ISPE would ever reach.
EXTRA_LOOPS = 2


class IntelligentIspeScheme(EraseScheme):
    """i-ISPE: start at the memorized final loop of the last erase."""

    name = "iispe"

    def __init__(self, profile: ChipProfile):
        super().__init__(profile)
        self._memorized_loop: Dict[BlockAddress, int] = {}

    def batch_kernel(self):
        from repro.kernels.erase import IispeBatchKernel

        return IispeBatchKernel(self.profile)

    def memorized_loop(self, block: Block) -> int:
        """The loop i-ISPE will start from for ``block`` (1 if unknown)."""
        return self._memorized_loop.get(block.address, 1)

    def _run(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> None:
        per_loop = self.profile.pulses_per_loop
        start = self.memorized_loop(block)
        ceiling = self.profile.max_loops + EXTRA_LOOPS
        loop = start
        while loop <= ceiling:
            fail_bits = self._step(state, result, rng, loop, per_loop)
            if state.passes(fail_bits):
                result.completed = True
                break
            loop += 1
        result.loops = state.loop
        self._memorized_loop[block.address] = state.loop

    def reset_memory(self) -> None:
        """Forget all per-block loop history (fresh-drive state)."""
        self._memorized_loop.clear()
