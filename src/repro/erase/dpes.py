"""DPES: Dynamic Program and Erase Scaling (Jeong et al. [29-31]).

DPES reduces erase-induced stress by lowering ``VERASE`` by 8-10 %,
which narrows the threshold-voltage window available for the program
states. To keep the original reliability, programming must form much
narrower V_TH distributions, costing 10-30 % longer ``tPROG`` (the
paper simulates 385 us at 0.5K PEC and 455 us at 2.5K PEC vs the
350 us baseline) and leaving a tighter read margin while active.

On the paper's chips DPES stops being applicable past 3K PEC — no
amount of extra program time can recover the reliability the reduced
erase voltage gives up — after which it falls back to Baseline
parameters (Section 7.1).
"""

from __future__ import annotations

import numpy as np

from repro.erase.scheme import EraseOperationResult, EraseScheme
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import EraseState

#: Fractional VERASE reduction while DPES is active (paper: 8-10 %).
VOLTAGE_REDUCTION = 0.10
#: PEC limit beyond which DPES can no longer meet reliability targets.
APPLICABLE_PEC_LIMIT = 3000
#: Program-latency scale in the low-wear regime (385 us / 350 us).
T_PROG_SCALE_EARLY = 1.10
#: Program-latency scale near the applicability limit (455 us / 350 us).
T_PROG_SCALE_LATE = 1.30
#: PEC at which the program penalty switches to the late regime.
T_PROG_LATE_PEC = 1500
#: Extra MRBER from the narrowed program window while DPES is active.
PROGRAM_WINDOW_RBER_OFFSET = 13.0


class DpesScheme(EraseScheme):
    """Erase-voltage scaling with program-latency compensation."""

    name = "dpes"

    def __init__(self, profile: ChipProfile):
        super().__init__(profile)
        exponent = profile.wear.voltage_damage_exponent
        #: Per-pulse damage multiplier from the reduced erase voltage.
        self.damage_factor = (1.0 - VOLTAGE_REDUCTION) ** exponent

    def batch_kernel(self):
        from repro.kernels.erase import DpesBatchKernel

        return DpesBatchKernel(self.profile)

    def is_active(self, block: Block) -> bool:
        """Whether voltage scaling still applies to ``block``."""
        return block.wear.pec < APPLICABLE_PEC_LIMIT

    def program_scale(self, block: Block) -> float:
        """DPES program-latency penalty (Table 2: 385/455 us vs 350 us)."""
        if not self.is_active(block):
            return 1.0
        if block.wear.pec < T_PROG_LATE_PEC:
            return T_PROG_SCALE_EARLY
        return T_PROG_SCALE_LATE

    def _run(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> None:
        active = self.is_active(block)
        if active:
            state.damage_scale = self.damage_factor
            result.t_prog_scale = (
                T_PROG_SCALE_EARLY
                if block.wear.pec < T_PROG_LATE_PEC
                else T_PROG_SCALE_LATE
            )
            result.rber_offset = PROGRAM_WINDOW_RBER_OFFSET
        per_loop = self.profile.pulses_per_loop
        for loop in range(1, self.profile.max_loops + 1):
            fail_bits = self._step(state, result, rng, loop, per_loop)
            if state.passes(fail_bits):
                result.completed = True
                result.loops = loop
                return
        result.loops = self.profile.max_loops
