"""AERO: Adaptive ERase Operation (the paper's Section 4/6 mechanism).

AERO keeps the ISPE voltage ladder but adjusts each erase-pulse step's
latency to be just long enough:

* **FELP** - after every verify-read, the fail-bit count selects the
  next pulse latency from the Erase-timing Parameter Table.
* **Shallow erasure** - the first loop starts with a short probe pulse
  (tSE = 1 ms) whose verify-read supplies the fail-bit count needed to
  right-size the *remainder erasure*, so even single-loop erases are
  optimized. A per-block flag (SEF) skips the probe once it stops
  paying off.
* **ECC-margin (aggressive mode)** - when the reliability analysis
  allows, AERO under-erases by up to two pulse quanta and accepts the
  residual fail bits, trading a bounded number of extra raw bit errors
  (still within ECC reach) for less erase stress.
* **Misprediction handling** - a verify-read that still fails after a
  reduced pulse triggers 0.5 ms repair pulses at the same voltage
  (escalating the ladder only if the loop's full budget is exhausted),
  exactly the recovery the paper costs at +0.5 ms per event.

``AEROcons`` is this scheme with ``aggressive=False`` (no margin use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.ept import (
    SHALLOW_PULSES,
    published_aggressive_table,
    published_conservative_table,
)
from repro.core.felp import Decision, FelpPredictor
from repro.erase.scheme import EraseOperationResult, EraseScheme
from repro.errors import ConfigError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import EraseState
from repro.nand.geometry import BlockAddress

#: Default shallow-erasure probe length in pulse quanta (tSE = 1 ms,
#: the paper's choice in Section 5.3).
SHALLOW_PULSES_DEFAULT = SHALLOW_PULSES


@dataclass
class AeroStats:
    """Cumulative counters across erases (reported by benchmarks)."""

    erases: int = 0
    shallow_probes: int = 0
    shallow_useful: int = 0
    aggressive_accepts: int = 0
    mispredictions: int = 0
    injected_mispredictions: int = 0
    pulses_applied: int = 0
    pulses_saved_vs_baseline: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class AeroEraseScheme(EraseScheme):
    """The AERO erase scheme (conservative or aggressive)."""

    def __init__(
        self,
        profile: ChipProfile,
        predictor: Optional[FelpPredictor] = None,
        aggressive: bool = True,
        shallow_pulses: int = SHALLOW_PULSES_DEFAULT,
        mispredict_rate: float = 0.0,
    ):
        super().__init__(profile)
        if not 0 <= mispredict_rate <= 1:
            raise ConfigError("mispredict_rate must be in [0, 1]")
        if not 1 <= shallow_pulses < profile.pulses_per_loop:
            raise ConfigError(
                "shallow probe must be shorter than a full erase pulse"
            )
        if predictor is None:
            predictor = FelpPredictor(
                profile,
                conservative=published_conservative_table(profile),
                aggressive=published_aggressive_table(profile) if aggressive else None,
            )
        if aggressive and predictor.aggressive is None:
            raise ConfigError("aggressive mode needs an aggressive EPT")
        self.predictor = predictor
        self.aggressive = aggressive
        self.shallow_pulses = shallow_pulses
        self.mispredict_rate = mispredict_rate
        self.name = "aero" if aggressive else "aero_cons"
        self.stats = AeroStats()
        #: Built-in SEF stand-in for standalone (non-FTL) use; AEROFTL
        #: supplies its own bitmap via the ``use_shallow`` argument.
        self._shallow_flags: Dict[BlockAddress, bool] = {}
        self._use_shallow_override: Optional[bool] = None

    # --- public API -----------------------------------------------------------

    def erase(
        self,
        block: Block,
        rng: np.random.Generator,
        cycles: int = 1,
        use_shallow: Optional[bool] = None,
    ) -> EraseOperationResult:
        """Erase ``block``; ``use_shallow`` overrides the internal SEF."""
        self._use_shallow_override = use_shallow
        try:
            result = super().erase(block, rng, cycles=cycles)
        finally:
            self._use_shallow_override = None
        # Pulses saved against the Baseline ladder's final loop, which
        # ``EraseScheme.erase`` has now settled into ``result.loops``.
        per_loop = self.profile.pulses_per_loop
        self.stats.pulses_applied += result.total_pulses
        self.stats.pulses_saved_vs_baseline += max(
            0, per_loop * result.loops - result.total_pulses
        )
        return result

    def batch_kernel(self):
        from repro.kernels.erase import AeroBatchKernel

        return AeroBatchKernel(self)

    def shallow_enabled(self, block: Block) -> bool:
        """Whether the internal SEF would use shallow erasure on ``block``."""
        return self._shallow_flags.get(block.address, True)

    def reset_stats(self) -> None:
        self.stats = AeroStats()

    # --- scheme body ------------------------------------------------------------

    def _decide(self, loop: int, fail_bits: int) -> Decision:
        """FELP decision ``(pulses, reduced, aggressive)`` for EP(loop)."""
        rows = self.predictor.table[self.aggressive]
        row = rows[min(loop, len(rows)) - 1]
        return row[self.profile.failbit_range_index(fail_bits)]

    def _run(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> None:
        per_loop = self.profile.pulses_per_loop
        self.stats.erases += 1
        use_shallow = self._use_shallow_override
        if use_shallow is None:
            use_shallow = self.shallow_enabled(block)

        if use_shallow:
            fail_bits = self._first_loop_shallow(block, state, result, rng)
        else:
            fail_bits = self._step(state, result, rng, 1, per_loop)
            if state.passes(fail_bits):
                result.completed = True
        if result.completed or result.accepted_under_erase:
            return

        for loop in range(2, self.profile.max_loops + 1):
            pulses, reduced, aggressive = self._decide(loop, fail_bits)
            if aggressive and pulses == 0:  # skip the loop outright
                self._accept_under_erase(result, fail_bits, nispe=loop)
                break
            pulses = self._maybe_inject_misprediction(pulses, reduced, rng)
            fail_bits = self._step(state, result, rng, loop, pulses)
            if self._settle_loop(
                state, result, rng, reduced, aggressive, fail_bits
            ):
                break
            fail_bits = result.fail_bit_trace[-1]

    # --- first loop with shallow erasure -------------------------------------------

    def _first_loop_shallow(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> int:
        """EP(0) probe + remainder erasure; returns the last fail-bit count."""
        per_loop = self.profile.pulses_per_loop
        result.used_shallow_erase = True
        self.stats.shallow_probes += 1
        fail_bits = self._step(state, result, rng, 1, self.shallow_pulses)
        if state.passes(fail_bits):
            # Probe alone finished the job (very fresh block).
            result.completed = True
            self._record_shallow_outcome(block, result, useful=True)
            return fail_bits
        pulses, reduced, aggressive = self._decide(1, fail_bits)
        if aggressive and pulses == 0:
            self._accept_under_erase(result, fail_bits, nispe=1)
            self._record_shallow_outcome(block, result, useful=True)
            return fail_bits
        remainder_cap = per_loop - self.shallow_pulses
        pulses = self._maybe_inject_misprediction(
            min(pulses, remainder_cap), reduced, rng
        )
        useful = (self.shallow_pulses + pulses) < per_loop
        fail_bits = self._step(state, result, rng, 1, pulses)
        self._settle_loop(state, result, rng, reduced, aggressive, fail_bits)
        self._record_shallow_outcome(block, result, useful=useful)
        return result.fail_bit_trace[-1]

    def _record_shallow_outcome(
        self, block: Block, result: EraseOperationResult, useful: bool
    ) -> None:
        result.shallow_erase_useful = useful
        if useful:
            self.stats.shallow_useful += 1
        self._shallow_flags[block.address] = useful

    # --- loop settlement ------------------------------------------------------------

    def _settle_loop(
        self,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
        reduced: bool,
        aggressive: bool,
        fail_bits: int,
    ) -> bool:
        """Resolve one loop's verify-read; returns True when the op is done.

        Handles the three outcomes: pass, intentional under-erase
        acceptance (aggressive mode), and misprediction repair with
        0.5 ms pulses at the same ladder voltage.
        """
        per_loop = self.profile.pulses_per_loop
        if state.passes(fail_bits):
            result.completed = True
            return True
        threshold = self.predictor.acceptance_threshold()
        # Aggressive acceptance is only meaningful while the loop still
        # has pulse budget left: a small fail-bit count *at the loop
        # cap* means the block needs the next (higher-voltage) loop,
        # not that it is two pulses from done — accepting there would
        # leave cells the current voltage cannot finish.
        if (
            aggressive
            and fail_bits <= threshold
            and state.pulses_in_loop < per_loop
        ):
            self._accept_under_erase(result, fail_bits, nispe=state.loop)
            return True
        if not reduced:
            return False  # Natural ISPE failure; ladder escalates.
        # Misprediction: the reduced pulse was not enough. Repair with
        # single pulse quanta at the same VERASE while the loop budget
        # allows (paper Section 6, "Misprediction Handling").
        result.mispredictions += 1
        self.stats.mispredictions += 1
        while state.pulses_in_loop < per_loop:
            fail_bits = self._step(state, result, rng, state.loop, 1)
            if state.passes(fail_bits):
                result.completed = True
                return True
            if (
                aggressive
                and fail_bits <= threshold
                and state.pulses_in_loop < per_loop
            ):
                self._accept_under_erase(result, fail_bits, nispe=state.loop)
                return True
        return False  # Loop budget exhausted; ladder escalates.

    def _accept_under_erase(
        self, result: EraseOperationResult, fail_bits: int, nispe: int
    ) -> None:
        result.accepted_under_erase = True
        result.residual_fail_bits = fail_bits
        result.residual_nispe = nispe
        # The skipped or truncated loop counts as the erase's last.
        result.loops = max(result.loops, nispe)
        self.stats.aggressive_accepts += 1

    # --- misprediction injection (Figure 16 sensitivity hook) -------------------------

    def _maybe_inject_misprediction(
        self,
        pulses: int,
        reduced: bool,
        rng: np.random.Generator,
    ) -> int:
        """Optionally under-predict by one quantum (sensitivity study)."""
        if (
            self.mispredict_rate > 0.0
            and reduced
            and pulses > 0
            and rng.random() < self.mispredict_rate
        ):
            self.stats.injected_mispredictions += 1
            return pulses - 1
        return pulses
