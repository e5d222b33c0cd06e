"""Erase scheme interface and operation results.

An erase scheme decides, loop by loop, how long to pulse and at what
ladder voltage, reacting to the fail-bit counts the verify-read steps
report. Schemes resolve the *physics* immediately (mutating the block)
and return an :class:`EraseOperationResult` whose timed *segments* the
SSD simulator replays on the event clock — which is also where erase
suspension slots in (between or inside segments).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import EraseFailure
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import EraseState
from repro.nand.timing import NandTiming


class SegmentKind(Enum):
    """Timed phases of an erase operation."""

    ERASE_PULSE = "EP"
    VERIFY_READ = "VR"


@dataclass(frozen=True)
class EraseSegment:
    """One timed phase: an erase-pulse step or a verify-read step."""

    kind: SegmentKind
    duration_us: float
    loop: int
    pulses: int = 0

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError("segment duration must be non-negative")


@dataclass
class EraseOperationResult:
    """Outcome of one erase operation.

    ``latency_us`` is the sum of segment durations (Equation 1/2 of the
    paper); ``damage`` is the voltage-weighted pulse damage the block
    absorbed; ``residual_fail_bits`` is nonzero only when AERO's
    aggressive mode deliberately accepted an under-erased block.
    """

    scheme: str
    segments: List[EraseSegment] = field(default_factory=list)
    loops: int = 0
    total_pulses: int = 0
    damage: float = 0.0
    completed: bool = False
    accepted_under_erase: bool = False
    residual_fail_bits: int = 0
    #: Loop index the under-erase penalty should be attributed to (the
    #: loop AERO's aggressive mode skipped/truncated); 0 = use the last
    #: ladder loop actually run.
    residual_nispe: int = 0
    fail_bit_trace: List[int] = field(default_factory=list)
    mispredictions: int = 0
    used_shallow_erase: bool = False
    shallow_erase_useful: bool = False
    #: Program-latency scale subsequent writes must use (DPES penalty).
    t_prog_scale: float = 1.0
    #: Extra MRBER for data programmed after this erase (DPES window).
    rber_offset: float = 0.0

    @property
    def latency_us(self) -> float:
        """Total erase latency tBERS (us)."""
        return sum(segment.duration_us for segment in self.segments)


class EraseScheme(ABC):
    """Base class for erase schemes.

    Subclasses implement :meth:`_run`, driving the block's
    :class:`~repro.nand.erase_model.EraseState` and recording segments;
    the base class handles wear accounting and page reset.
    """

    #: Human-readable scheme name (used in reports and benchmarks).
    name: str = "abstract"

    def __init__(self, profile: ChipProfile):
        self.profile = profile
        self.timing = NandTiming.from_profile(profile)
        # Frozen segments are shareable and a ladder draws from a handful
        # of steps, so each scheme interns one (erase-pulse, verify-read)
        # segment pair per ``(loop, pulses)`` step instead of building
        # ~10 fresh objects per erase.
        self._steps: Dict[
            Tuple[int, int], Tuple[EraseSegment, EraseSegment]
        ] = {}

    def erase(
        self,
        block: Block,
        rng: np.random.Generator,
        cycles: int = 1,
    ) -> EraseOperationResult:
        """Erase ``block``; returns the operation result.

        ``cycles`` accounts this one simulated erase for that many
        identical P/E cycles (used by the coarse-grained lifetime
        simulator); timing and fail-bit behaviour are unaffected.
        """
        state = block.begin_erase()
        result = EraseOperationResult(scheme=self.name)
        self._run(block, state, result, rng)
        result.damage = state.damage
        result.loops = max(result.loops, state.loop)
        if not result.completed and not result.accepted_under_erase:
            raise EraseFailure(
                f"{self.name} failed to erase {block.address}",
                fail_bits=result.fail_bit_trace[-1] if result.fail_bit_trace else 0,
                loops=result.loops,
            )
        block.finish_erase(
            state,
            residual_fail_bits=result.residual_fail_bits,
            cycles=cycles,
            nispe=result.residual_nispe or None,
        )
        return result

    @abstractmethod
    def _run(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> None:
        """Drive the erase ladder; record segments and outcome flags."""

    def program_scale(self, block: Block) -> float:
        """Program-latency multiplier for pages written to ``block``.

        1.0 for every scheme except DPES, whose narrowed program window
        costs 10-30 % longer ``tPROG`` while voltage scaling is active.
        """
        return 1.0

    def batch_kernel(self):
        """A fresh vectorized batch kernel, or ``None`` (no kernel).

        Schemes with a kernel in :mod:`repro.kernels` override this;
        campaign drivers (lifetime simulator, characterization loops)
        use the kernel when one is returned and fall back to per-block
        :meth:`erase` calls otherwise, so third-party schemes work
        unchanged. Kernels carry the scheme's mutable state (i-ISPE
        memory, AERO shallow flags): create one per block population.
        """
        return None

    # --- shared helpers ---------------------------------------------------------

    def _step(
        self,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
        loop: int,
        pulses: int,
    ) -> int:
        """Run one erase-pulse step of ``pulses`` quanta at ``loop`` and
        its verify-read; returns the measured fail-bit count."""
        if loop != state.loop:
            state.start_loop(loop)
        if pulses > 0:
            state.apply_pulses(pulses)
        fail_bits = state.verify_read(rng)
        pair = self._steps.get((loop, pulses))
        if pair is None:
            pair = self._steps[(loop, pulses)] = (
                EraseSegment(
                    SegmentKind.ERASE_PULSE,
                    self.timing.erase_pulse_us(pulses),
                    loop,
                    pulses,
                ),
                EraseSegment(
                    SegmentKind.VERIFY_READ, self.timing.t_vr_us, loop
                ),
            )
        result.segments.extend(pair)
        result.total_pulses += pulses
        result.fail_bit_trace.append(fail_bits)
        return fail_bits
