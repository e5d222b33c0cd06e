"""m-ISPE: the paper's modified ISPE used for characterization (§5.1).

Two modifications to the original ISPE scheme: (i) the fixed ``tEP``
per EP step shrinks from 3.5 ms to one pulse quantum (0.5 ms), i.e. an
erase loop is split into seven short loops, and (ii) ``VERASE`` steps
up only every seven short loops, emulating the original voltage ladder.
If a block needs ``n`` short loops, the paper estimates
``NISPE = ceil(n/7)`` and ``mtEP(NISPE) = 0.5 * (1 + (n-1) mod 7)`` ms —
this scheme is how the Figure 4 / Figure 7 measurements are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.erase.scheme import EraseOperationResult, EraseScheme
from repro.nand.block import Block
from repro.nand.erase_model import EraseState


@dataclass(frozen=True)
class MIspeMeasurement:
    """Per-operation measurement extracted from an m-ISPE erase."""

    short_loops: int
    nispe: int
    min_t_ep_final_us: float
    min_t_bers_us: float
    fail_bits_per_pulse: List[int]


class MIspeScheme(EraseScheme):
    """Characterization scheme: 0.5 ms loops, voltage step every 7 loops."""

    name = "m-ispe"

    def batch_kernel(self):
        from repro.kernels.erase import MispeBatchKernel

        return MispeBatchKernel(self.profile)

    def _run(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> None:
        per_loop = self.profile.pulses_per_loop
        max_pulses = self.profile.max_pulses
        for short_loop in range(max_pulses):
            voltage_loop = 1 + short_loop // per_loop
            fail_bits = self._step(state, result, rng, voltage_loop, 1)
            if state.passes(fail_bits):
                result.completed = True
                result.loops = voltage_loop
                return
        result.loops = self.profile.max_loops

    # --- measurement helpers ------------------------------------------------------

    def measure(
        self,
        block: Block,
        rng: np.random.Generator,
        cycles: int = 1,
    ) -> MIspeMeasurement:
        """Erase ``block`` and report the (NISPE, mtEP, mtBERS) estimate.

        The estimate follows the paper's §5.1 formulas. ``mtBERS``
        counts one verify-read per *estimated* standard loop (the
        m-ISPE scheme's extra VR steps are methodology overhead, not
        part of the quantity being estimated).
        """
        result = self.erase(block, rng, cycles=cycles)
        short_loops = result.total_pulses
        per_loop = self.profile.pulses_per_loop
        nispe = (short_loops + per_loop - 1) // per_loop
        final_pulses = 1 + (short_loops - 1) % per_loop
        min_t_ep_final = final_pulses * self.profile.pulse_quantum_us
        min_t_bers = (
            short_loops * self.profile.pulse_quantum_us
            + nispe * self.profile.t_vr_us
        )
        return MIspeMeasurement(
            short_loops=short_loops,
            nispe=nispe,
            min_t_ep_final_us=min_t_ep_final,
            min_t_bers_us=min_t_bers,
            fail_bits_per_pulse=list(result.fail_bit_trace),
        )
