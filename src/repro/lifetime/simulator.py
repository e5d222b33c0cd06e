"""P/E cycling lifetime simulation (Figure 13 methodology).

The paper constructs five sets of 120 blocks and cycles each set with
one erase scheme, measuring the average MRBER (max raw bit errors per
1 KiB under 1-year retention) as PEC grows; a set's lifetime is the
PEC at which the average MRBER crosses the RBER requirement.

The simulator cycles each virtual block with the real scheme
implementations — every erase runs the full decision logic (FELP
lookups, shallow probes, aggressive acceptance, i-ISPE memory, DPES
gating) against the block's erase physics — in coarse steps: one
representative erase is simulated per ``step`` cycles and accounted
``step`` times, which keeps trajectories faithful while making a full
five-scheme sweep take seconds.

Only the object engine builds :class:`~repro.nand.block.Block` objects.
The kernel path cycles a
:class:`~repro.kernels.state.BlockArrayState` whose ``base``/``rate``
draws and jitter table come from one module-level share of the last
``(profile, seed, block_count)`` block set: every scheme curve of a
figure cycles the same blocks, so consecutive curves draw them once.
Every lifetime block has its own seed, so its erase model takes no
draw table (a table serves blocks of one seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.geometry import BlockAddress
from repro.nand.rber import RberModel
from repro.experiments.registry import SCHEMES
from repro.kernels import BlockArrayState, resolve_kernel
from repro.kernels.state import JitterTable, block_draws
from repro.nand.erase_model import BlockEraseModel
from repro.rng import derive, derive_rng
from repro.telemetry.instruments import kernel_metrics


@dataclass
class LifetimeCurve:
    """Average-MRBER trajectory of one scheme's block set."""

    scheme: str
    pec_points: List[int] = field(default_factory=list)
    avg_mrber: List[float] = field(default_factory=list)
    lifetime_pec: Optional[int] = None
    requirement: float = 63.0

    def mrber_at(self, pec: int) -> float:
        """Average MRBER at the recorded point nearest to ``pec``."""
        if not self.pec_points:
            raise ConfigError("empty lifetime curve")
        index = int(np.argmin(np.abs(np.asarray(self.pec_points) - pec)))
        return self.avg_mrber[index]

    def improvement_over(self, baseline: "LifetimeCurve") -> float:
        """Relative lifetime gain vs a baseline curve."""
        if not self.lifetime_pec or not baseline.lifetime_pec:
            raise ConfigError("both curves must have crossed the requirement")
        return self.lifetime_pec / baseline.lifetime_pec - 1.0

    def to_json_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON types; exact round-trip via
        :meth:`from_json_dict` (floats survive bit-identically)."""
        return {
            "scheme": self.scheme,
            "pec_points": list(self.pec_points),
            "avg_mrber": [float(value) for value in self.avg_mrber],
            "lifetime_pec": self.lifetime_pec,
            "requirement": float(self.requirement),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "LifetimeCurve":
        lifetime_pec = data["lifetime_pec"]
        return cls(
            scheme=str(data["scheme"]),
            pec_points=[int(value) for value in data["pec_points"]],
            avg_mrber=[float(value) for value in data["avg_mrber"]],
            lifetime_pec=None if lifetime_pec is None else int(lifetime_pec),
            requirement=float(data["requirement"]),
        )


#: The last kernel-path block set, as one ``((profile, seed,
#: block_count), (base, rate, jitter))`` tuple (see :func:`_block_set`).
_BLOCK_SET: Tuple[tuple, Optional[tuple]] = ((None, None, None), None)


def _block_set(
    profile: ChipProfile, seed: int, block_count: int
) -> Tuple[np.ndarray, np.ndarray, JitterTable]:
    """``(base, rate, jitter)`` of the block set the object engine builds.

    Block ``index`` is the erase model of ``Block(BlockAddress(0, 0, 0,
    index), profile, seed=derive(seed, "lifetime-block", index))``, so
    the draws are a pure function of ``(profile, seed, block_count)``.
    The last set's read-only arrays and append-only jitter table are
    kept (:func:`~repro.kernels.state.block_draws`): each curve reads
    the table from column 0, extending it past the longest curve so
    far. The key compares as one tuple, so the profile compares by
    identity and then by value, never by name.
    """
    global _BLOCK_SET
    key, shared = _BLOCK_SET
    if key != (profile, seed, block_count):
        shared = block_draws([
            BlockEraseModel(
                profile, derive(seed, "lifetime-block", index), 0, 0, 0, index
            )
            for index in range(block_count)
        ])
        _BLOCK_SET = ((profile, seed, block_count), shared)
    return shared


class LifetimeSimulator:
    """Cycles one block set with one erase scheme until failure."""

    def __init__(
        self,
        profile: ChipProfile,
        scheme_key: str,
        block_count: int = 64,
        step: int = 50,
        seed: int = 0xAE20,
        mispredict_rate: float = 0.0,
        requirement: Optional[int] = None,
        engine: str = "auto",
    ):
        if block_count <= 0 or step <= 0:
            raise ConfigError("block count and step must be positive")
        self.profile = profile
        self.scheme_key = scheme_key
        self.step = step
        self.engine = engine
        self.requirement = (
            requirement
            if requirement is not None
            else profile.ecc.requirement_bits_per_kib
        )
        self.rber = RberModel(profile)
        self.scheme = SCHEMES.create(
            scheme_key,
            profile,
            mispredict_rate=mispredict_rate,
            rber_requirement=requirement,
        )
        self.seed = seed
        self.block_count = block_count
        self.kernel = resolve_kernel(self.scheme, engine, scheme_name=scheme_key)
        if self.kernel is None:
            self.rng = derive_rng(seed, "lifetime", scheme_key)
            self.blocks: List[Block] = [
                Block(
                    address=BlockAddress(0, 0, 0, index),
                    profile=profile,
                    pages=8,
                    seed=derive(seed, "lifetime-block", index),
                )
                for index in range(block_count)
            ]
            #: Per-block extra MRBER from the last erase (DPES window).
            self._extra_rber: Dict[int, float] = {}

    def run(self, max_pec: int = 12000, record_every: int = 250) -> LifetimeCurve:
        """Cycle until the average MRBER crosses the requirement."""
        kernel_metrics().engine_cells.labels(
            site="lifetime",
            engine="kernel" if self.kernel is not None else "object",
        ).inc()
        if self.kernel is not None:
            return self._run_kernel(max_pec, record_every)
        curve = LifetimeCurve(
            scheme=self.scheme.name, requirement=float(self.requirement)
        )
        pec = 0
        self._record_point(curve, pec)
        while pec < max_pec:
            for index, block in enumerate(self.blocks):
                result = self.scheme.erase(block, self.rng, cycles=self.step)
                self._extra_rber[index] = result.rber_offset
            pec += self.step
            if pec % record_every == 0 or pec >= max_pec:
                average = self._record_point(curve, pec)
                if average > self.requirement:
                    curve.lifetime_pec = pec
                    break
        return curve

    def _run_kernel(self, max_pec: int, record_every: int) -> LifetimeCurve:
        """Vectorized run: one batch-kernel step per coarse erase.

        The block array holds the object engine's block set (same seed
        derivation, same jitter streams, see :func:`_block_set`), so
        schemes whose ladder is deterministic in the required-work
        draw — baseline, DPES, i-ISPE, m-ISPE — reproduce the object
        path's trajectory exactly; AERO's verify-noise draws come from
        a kernel-local generator and match statistically.
        """
        curve = LifetimeCurve(
            scheme=self.scheme.name, requirement=float(self.requirement)
        )
        state = BlockArrayState(
            self.profile, *_block_set(self.profile, self.seed, self.block_count)
        )
        kernel_rng = derive_rng(self.seed, "lifetime", self.scheme_key, "kernel")
        extra_rber = np.zeros(state.count)
        batch_blocks = kernel_metrics().batch_blocks
        pec = 0
        self._record_kernel_point(curve, pec, state, extra_rber)
        while pec < max_pec:
            batch_blocks.observe(state.count)
            result = self.kernel.erase_batch(state, kernel_rng, cycles=self.step)
            extra_rber = result.rber_offset
            pec += self.step
            if pec % record_every == 0 or pec >= max_pec:
                average = self._record_kernel_point(curve, pec, state, extra_rber)
                if average > self.requirement:
                    curve.lifetime_pec = pec
                    break
        return curve

    def _record_kernel_point(
        self,
        curve: LifetimeCurve,
        pec: int,
        state: BlockArrayState,
        extra_rber: np.ndarray,
    ) -> float:
        batch = self.rber.mrber_batch(
            state.age,
            state.residual_fail_bits,
            state.residual_nispe,
            extra_rber=extra_rber,
            sensitivity=state.sensitivity,
        )
        average = float(np.mean(batch.total))
        curve.pec_points.append(pec)
        curve.avg_mrber.append(average)
        return average

    def _record_point(self, curve: LifetimeCurve, pec: int) -> float:
        values = [
            self.rber.mrber(
                block.wear,
                extra_rber=self._extra_rber.get(index, 0.0),
                sensitivity=block.rber_sensitivity,
            ).total
            for index, block in enumerate(self.blocks)
        ]
        average = float(np.mean(values))
        curve.pec_points.append(pec)
        curve.avg_mrber.append(average)
        return average
