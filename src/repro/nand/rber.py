"""Raw bit-error-rate model: wear, retention, and under-erasure.

``MRBER`` in the paper is the maximum raw bit errors per 1 KiB codeword
across the pages of a block, measured after a 1-year-at-30C retention
bake (emulated via an 85C/13h accelerated bake). This module models it
as

``MRBER(block) = fresh + k * age^beta + retention_per_kc * age + penalty``

where ``age`` is the damage-normalized wear age from
:class:`repro.nand.erase_model.WearState` and ``penalty`` is the
under-erasure penalty of Figure 10b (nonzero only when the last erase
deliberately left residual fail bits, i.e. AERO's aggressive mode).

The scale ``k`` is pinned in closed form so a Baseline-ISPE-cycled
block (whose wear age equals PEC/1000 by construction) reaches the
RBER requirement exactly at the profile's ``target_baseline_lifetime_pec``
— the paper's Figure 13 Baseline endpoint (5.3K PEC). Every other
scheme's lifetime then *emerges* from its damage trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import WearState


@dataclass(frozen=True)
class RberBatch:
    """Batched MRBER evaluation: one array per physical component.

    The vectorized counterpart of :class:`RberSample`, produced by
    :meth:`RberModel.mrber_batch` for a whole block population at once
    (the lifetime/characterization hot path). Components follow the
    same decomposition; there is no sampling-noise term (the batch path
    evaluates the deterministic mean curve, like ``mrber(rng=None)``).
    """

    wear: np.ndarray
    retention: np.ndarray
    under_erase_penalty: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """Per-block MRBER in raw bit errors per 1 KiB codeword."""
        return np.maximum(
            0.0, self.wear + self.retention + self.under_erase_penalty
        )


@dataclass(frozen=True)
class RberSample:
    """One MRBER evaluation, decomposed into its physical components."""

    wear: float
    retention: float
    under_erase_penalty: float
    noise: float

    @property
    def total(self) -> float:
        """MRBER in raw bit errors per 1 KiB codeword."""
        return max(0.0, self.wear + self.retention + self.under_erase_penalty + self.noise)


class RberModel:
    """Reliability model for one chip profile.

    The model is deterministic given (profile, wear state); optional
    sampling noise emulates page-to-page spread when a generator is
    supplied (the paper reports the *max* across pages, which our mean
    curve represents; noise is small and zero-mean).
    """

    def __init__(self, profile: ChipProfile, retention_factor: float = 1.0):
        if retention_factor < 0:
            raise ConfigError("retention_factor must be non-negative")
        self.profile = profile
        self.retention_factor = retention_factor
        wear = profile.wear
        target_age = wear.target_baseline_lifetime_pec / 1000.0
        requirement = float(profile.ecc.requirement_bits_per_kib)
        budget = (
            requirement
            - wear.fresh_rber
            - wear.retention_rber_per_kpec * target_age * retention_factor
        )
        if budget <= 0:
            raise ConfigError(
                "RBER requirement leaves no wear budget; check profile calibration"
            )
        #: Closed-form Figure 13 calibration: Baseline crosses the
        #: requirement exactly at the target lifetime.
        self.wear_scale = budget / (target_age ** wear.rber_exponent)

    # --- components -------------------------------------------------------------

    def wear_rber(self, age_kilocycles: float) -> float:
        """Wear-induced MRBER of a completely erased block at ``age``."""
        if age_kilocycles < 0:
            raise ConfigError("wear age must be non-negative")
        wear = self.profile.wear
        return wear.fresh_rber + self.wear_scale * age_kilocycles ** wear.rber_exponent

    def retention_rber(self, age_kilocycles: float) -> float:
        """Retention-loss contribution at the reference 1-year bake."""
        wear = self.profile.wear
        return (
            wear.retention_rber_per_kpec * age_kilocycles * self.retention_factor
        )

    def under_erase_penalty(self, residual_fail_bits: int, nispe: int) -> float:
        """Extra MRBER from deliberately incomplete erasure (Fig. 10b).

        Zero when the block passed the normal FPASS criterion. Above
        FPASS the penalty grows with the residual fail-bit count (in
        units of delta) and shrinks with NISPE per the calibrated
        ``nispe_factor`` schedule, reproducing the paper's safe regions
        C1 (NISPE <= 3 and F < delta) and C2 (NISPE = 4 and F < gamma).
        """
        profile = self.profile
        if residual_fail_bits <= profile.f_pass:
            return 0.0
        wear = profile.wear
        factor = wear.nispe_factor_start - wear.nispe_factor_slope * (nispe - 1)
        factor = min(wear.nispe_factor_start, max(wear.nispe_factor_min, factor))
        excess = (residual_fail_bits - profile.f_pass) / profile.delta
        return factor * (
            wear.under_erase_rber_base + wear.under_erase_rber_per_delta * excess
        )

    # --- composite --------------------------------------------------------------

    def effective_age(self, age_kilocycles: float, sensitivity: float) -> float:
        """RBER-effective wear age of a block.

        ``sensitivity`` is the block's wear-rate draw normalized to the
        profile mean (see :attr:`repro.nand.block.Block.rber_sensitivity`):
        hard-to-erase blocks degrade faster, coupling Figure 10a's
        per-NISPE MRBER spread to the erase-work distribution.
        """
        coef = self.profile.wear.rber_sensitivity_coef
        return max(0.0, age_kilocycles * (1.0 + coef * (sensitivity - 1.0)))

    def mrber(
        self,
        wear_state: WearState,
        rng: np.random.Generator | None = None,
        extra_rber: float = 0.0,
        sensitivity: float = 1.0,
    ) -> RberSample:
        """MRBER of a block in its current wear/erasure state.

        ``extra_rber`` lets erase schemes add scheme-specific terms
        (e.g. DPES's narrowed program window while voltage scaling is
        active); ``sensitivity`` couples per-block erase difficulty to
        reliability (1.0 = average block).
        """
        age = self.effective_age(wear_state.age_kilocycles, sensitivity)
        noise = float(rng.normal(0.0, 1.2)) if rng is not None else 0.0
        return RberSample(
            wear=self.wear_rber(age) + extra_rber,
            retention=self.retention_rber(age),
            under_erase_penalty=self.under_erase_penalty(
                wear_state.residual_fail_bits, wear_state.residual_nispe
            ),
            noise=noise,
        )

    def mrber_batch(
        self,
        age_kilocycles: np.ndarray,
        residual_fail_bits: np.ndarray,
        residual_nispe: np.ndarray,
        extra_rber: np.ndarray | float = 0.0,
        sensitivity: np.ndarray | float = 1.0,
    ) -> RberBatch:
        """MRBER of a whole block population, one array per component.

        Mirrors :meth:`mrber` (without sampling noise) term for term,
        so the batch kernels' recorded trajectories match the scalar
        path to float precision. ``age_kilocycles``/``residual_*``
        come straight from a
        :class:`~repro.kernels.state.BlockArrayState`.
        """
        age_kilocycles = np.asarray(age_kilocycles, dtype=np.float64)
        if np.any(age_kilocycles < 0):
            raise ConfigError("wear age must be non-negative")
        wear = self.profile.wear
        coef = wear.rber_sensitivity_coef
        age = np.maximum(
            0.0, age_kilocycles * (1.0 + coef * (np.asarray(sensitivity) - 1.0))
        )
        wear_component = (
            wear.fresh_rber
            + self.wear_scale * age ** wear.rber_exponent
            + extra_rber
        )
        retention = (
            wear.retention_rber_per_kpec * age * self.retention_factor
        )
        fail_bits = np.asarray(residual_fail_bits)
        nispe = np.asarray(residual_nispe)
        factor = np.clip(
            wear.nispe_factor_start - wear.nispe_factor_slope * (nispe - 1),
            wear.nispe_factor_min,
            wear.nispe_factor_start,
        )
        excess = (fail_bits - self.profile.f_pass) / self.profile.delta
        penalty = np.where(
            fail_bits <= self.profile.f_pass,
            0.0,
            factor
            * (wear.under_erase_rber_base + wear.under_erase_rber_per_delta * excess),
        )
        return RberBatch(
            wear=wear_component,
            retention=retention,
            under_erase_penalty=penalty,
        )

