"""Per-block erase physics: the statistical stand-in for real NAND.

The paper's entire mechanism rests on three regularities measured on 160
real 3D TLC chips:

1. **Figure 4** - the minimum erase latency ``mtBERS`` varies widely
   across blocks and grows with P/E cycling; after 2K PEC every block
   needs at least two ISPE loops.
2. **Figure 7** - within an erase-pulse step, the fail-bit count falls
   *linearly* with applied pulse time (slope ``delta`` per 0.5 ms) and
   lands at a consistent small value ``gamma`` when exactly one more
   pulse is needed.
3. **Figure 8 / Table 1** - the fail-bit count at the end of one loop
   is a conservative predictor of the pulse time the next loop needs.

This module encodes exactly those regularities:

* Each block draws a process-variation ``base`` and wear-sensitivity
  ``rate``; its required erase work (in 0.5 ms *pulse units*) at wear
  age ``x`` kilocycles is ``W(x) = clamp(base + rate * x^1.7, floor(x), 35)``.
* An in-flight erase is an :class:`EraseState` ladder position: progress
  is pulses applied along the ISPE voltage ladder, with *voltage credit*
  for schemes that jump to a high loop directly (full credit on 2D
  chips, partial on 3D - this is what breaks i-ISPE on 3D NAND,
  paper Section 3.3).
* Verify-read returns ``F = gamma + delta*(r-1) + noise`` when ``r``
  pulses remain, which makes Table 1's conservative column emerge from
  the model rather than being assumed.

Wear feedback (Figure 13): blocks age by *damage*, not by P/E count.
One erase contributes ``(program_share + erase_share * damage/baseline_damage)``
milli-kilocycles of age, so a block erased gently (AERO) stays young -
its ``W`` grows slower, which compounds into the paper's 30-43 %
lifetime gains. Under Baseline ISPE the ratio is exactly 1, so wear age
equals PEC/1000 and the characterization figures calibrate directly.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import EraseSchemeError
from repro.nand.chip_types import ChipProfile
from repro.rng import derive, derive_rng, make_rng, truncated_normal

#: Fraction of wear-age accumulation attributed to erase stress
#: (Hong et al. [11]: erase accounts for ~80 % of cell stress).
ERASE_WEAR_SHARE = 0.9
PROGRAM_WEAR_SHARE = 1.0 - ERASE_WEAR_SHARE

#: Fail-bit saturation, in units of delta (all bitlines failing).
FAILBIT_SATURATION_DELTAS = 8.0

#: Standard deviation of the per-erase required-work jitter (pulses).
ERASE_JITTER_STD = 0.35


class EraseState:
    """Ladder position of one in-flight erase operation.

    ``progress`` is measured in ladder-normalized pulse units: one 0.5 ms
    pulse at the loop the standard ISPE ladder would be using advances
    progress by one unit. Jumping to loop ``v`` without running loops
    ``1..v-1`` grants ``jump_efficiency * 7 * (v-1)`` units of voltage
    credit (the higher voltage instantly achieves most of what gentler
    loops would have, fully so on 2D chips).

    ``baseline_damage`` is the wear-age normalizer of this erase (what a
    Baseline ISPE erase would inflict at the pre-erase wear age);
    :meth:`BlockEraseModel.begin_erase` fills it in, and a bare state
    leaves it ``None`` for :meth:`WearState.record_erase` to compute.
    """

    __slots__ = (
        "required", "profile", "damage_scale", "baseline_damage",
        "progress", "loop", "pulses_in_loop", "total_pulses", "damage",
        "skipped_loops",
    )

    def __init__(
        self,
        required: int,
        profile: ChipProfile,
        damage_scale: float = 1.0,
        baseline_damage: Optional[float] = None,
    ):
        self.required = required
        self.profile = profile
        #: Multiplier on per-pulse damage; erase-voltage-scaling schemes
        #: (DPES) lower it below 1.0 to model the gentler pulse.
        self.damage_scale = damage_scale
        self.baseline_damage = baseline_damage
        self.progress = 0.0
        self.loop = 0
        self.pulses_in_loop = 0
        self.total_pulses = 0
        self.damage = 0.0
        self.skipped_loops = 0

    # --- queries ------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once applied progress covers the required erase work."""
        return self.progress >= self.required

    @property
    def remaining_pulses(self) -> int:
        """Pulses still needed at the current (or any higher) voltage."""
        return max(0, math.ceil(self.required - self.progress - 1e-9))

    # --- driving ------------------------------------------------------------

    def start_loop(self, voltage_loop: int) -> None:
        """Begin an erase-pulse step at ladder voltage ``voltage_loop``.

        Repeating the current loop (misprediction handling) is allowed
        and grants no new credit. Moving up the ladder grants full
        voltage credit only if the previous loop ran its full pulse
        budget; otherwise the transition counts as a *jump* and gets
        partial credit per the chip's ``jump_efficiency``.
        """
        if voltage_loop < 1:
            raise EraseSchemeError("voltage loop index counts from 1")
        if voltage_loop < self.loop:
            raise EraseSchemeError(
                f"cannot lower erase voltage (loop {self.loop} -> {voltage_loop})"
            )
        if voltage_loop == self.loop:
            return  # Retry at the same voltage: misprediction handling.
        per_loop = self.profile.pulses_per_loop
        continuous = voltage_loop == 1 or (
            voltage_loop == self.loop + 1 and self.pulses_in_loop >= per_loop
        )
        efficiency = 1.0 if continuous else _jump_efficiency(self.profile)
        credit = efficiency * per_loop * (voltage_loop - 1)
        if voltage_loop > self.loop + 1 or (voltage_loop > 1 and self.loop == 0):
            self.skipped_loops += voltage_loop - 1 - self.loop
        self.progress = max(self.progress, credit)
        self.loop = voltage_loop
        self.pulses_in_loop = 0

    def apply_pulses(self, count: int) -> float:
        """Apply ``count`` pulse quanta at the current loop voltage.

        Returns the damage (voltage-weighted pulse units) inflicted.
        Progress is capped at what the current voltage level supports
        (``pulses_per_loop * loop``): dwelling at a too-low voltage
        cannot fully erase a hard block, which is why ISPE escalates.
        """
        if self.loop < 1:
            raise EraseSchemeError("start_loop must be called before pulsing")
        if count < 0:
            raise EraseSchemeError("pulse count must be non-negative")
        per_loop = self.profile.pulses_per_loop
        cap = per_loop * self.loop
        damage_per_pulse = self.profile.pulse_damage(self.loop) * self.damage_scale
        if self.skipped_loops:
            damage_per_pulse *= (
                1.0 + _skip_stress(self.profile) * self.skipped_loops
            )
        # Hot path: the per-pulse state lives in locals for the loop and
        # the counters are batch-updated after (nothing reads them
        # mid-loop). Progress still advances one pulse at a time so the
        # float sequence is unchanged.
        added_damage = 0.0
        progress = self.progress
        for _ in range(count):
            added_damage += damage_per_pulse
            if progress < cap:
                stepped = progress + 1.0
                progress = stepped if stepped < cap else cap
        self.progress = progress
        self.pulses_in_loop += count
        self.total_pulses += count
        self.damage += added_damage
        return added_damage

    def verify_read(self, rng: np.random.Generator) -> int:
        """Sense the block and return the measured fail-bit count.

        Implements the Figure 7 regularity: with ``r`` pulses remaining,
        the true count is ``gamma + delta*(r-1) + U(0, 0.5*delta)``,
        tightly ``~gamma`` at ``r == 1`` and saturating near ``8*delta``.
        Measurement noise is multiplicative (``failbit_noise``).
        """
        # ``lo + (hi - lo) * random()`` and ``scale * standard_normal()``
        # are how NumPy defines ``uniform(lo, hi)`` and ``normal(0, scale)``
        # (same draws, same floats) without their argument handling.
        profile = self.profile
        draw = rng.random
        deficit = math.ceil(self.required - self.progress - 1e-9)
        if deficit <= 0:
            true_count = 0.6 * profile.f_pass * draw()
        elif deficit == 1:
            true_count = profile.gamma * (0.85 + (1.15 - 0.85) * draw())
        else:
            # Centered slightly below gamma + delta*(r-1): about two
            # thirds of blocks needing r more pulses report a count in
            # fail-bit range r-1 and one third in range r, reproducing
            # Figure 8's bin composition (66-71 % of a range's blocks
            # need the same mtEP, the rest need less).
            true_count = (
                profile.gamma
                + profile.delta * (deficit - 1)
                + (-0.65 + (0.15 - (-0.65)) * draw()) * profile.delta
            )
        saturation = FAILBIT_SATURATION_DELTAS * profile.delta
        true_count = min(
            true_count, saturation * (0.97 + (1.03 - 0.97) * draw())
        )
        noise = profile.failbit_noise * rng.standard_normal()
        fail_bits = int(round(true_count * (1.0 + noise)))
        return fail_bits if fail_bits > 0 else 0

    def passes(self, fail_bits: int) -> bool:
        """ISPE pass criterion: fail-bit count at or below FPASS."""
        return fail_bits <= self.profile.f_pass


def _jump_efficiency(profile: ChipProfile) -> float:
    """Voltage-credit efficiency when jumping up the ladder.

    2D floating-gate cells erase as soon as the voltage is high enough
    (full credit, which is why i-ISPE worked on 2D chips); 3D
    charge-trap GIDL erase needs the earlier loops' dwell time too
    (partial credit), per the paper's Section 3.3 discussion.
    """
    return 1.0 if not profile.is_3d else 0.8


def _skip_stress(profile: ChipProfile) -> float:
    """Extra per-pulse damage factor per skipped ladder loop.

    Jumping straight to a high voltage deep-erases the easy cells that
    a gentler loop would have finished, stressing them; stronger on 3D
    chips (higher process variation across the string).
    """
    return profile.wear.skip_stress_factor if profile.is_3d else 0.1


#: Jitter values a :class:`JitterRow` draws per fill.
JITTER_CHUNK = 64


class JitterRow:
    """One block's erase-to-erase jitter stream, kept as it is drawn.

    The row is append-only: it draws :data:`JITTER_CHUNK` values at a
    time from the block's own generator (made at the first fill) and
    keeps them, so every reader of the row sees the same stream from
    its start, each through a cursor of its own. NumPy ``Generator``
    array fills consume the stream exactly like repeated scalar draws,
    so value ``j`` is the ``j``-th ``required_pulses`` draw. Fills hold
    a lock: two threads drawing at once would interleave the stream.
    """

    __slots__ = ("seed", "values", "_rng", "_lock")

    def __init__(self, seed: int):
        self.seed = seed
        self.values = array("d")
        self._rng: Optional[np.random.Generator] = None
        self._lock = threading.Lock()

    def upto(self, count: int) -> array:
        """The row, drawn to at least ``count`` values."""
        values = self.values
        if len(values) < count:
            with self._lock:
                if self._rng is None:
                    self._rng = make_rng(self.seed)
                while len(values) < count:
                    values.frombytes(self._rng.normal(
                        0.0, ERASE_JITTER_STD, size=JITTER_CHUNK
                    ).tobytes())
        return values


class BlockEraseModel:
    """Static per-block erase characteristics (process variation draw).

    One instance models one physical block across its whole life; the
    block's identity (chip id, block id) and the campaign seed fully
    determine its parameters, so experiments are reproducible and
    block populations are stable under resampling.

    The draws are a pure function of ``(profile, seed, keys)``, and some
    blocks are built again and again: every scheme cell of a grid point
    builds the same drive, and the characterization platform clones the
    same test blocks. Their owner (the grid point, the platform) passes
    one ``draws`` table for its blocks, all of one ``(profile, seed)``:
    a model reads its block's ``(base, rate, JitterRow)`` entry there,
    or draws it and fills it in. Without a table a model draws its own.
    Each model reads its block's :class:`JitterRow` through a cursor of
    its own, so every model sees the block's jitter stream from its
    start, and a later model of the block builds no generator.
    """

    def __init__(
        self, profile: ChipProfile, seed: int, *keys: object,
        draws: Optional[dict] = None,
    ):
        self.profile = profile
        draws = {} if draws is None else draws
        entry = draws.get(keys)
        if entry is None:
            rng = derive_rng(seed, "erase-model", *keys)
            work = profile.erase_work
            base = truncated_normal(
                rng, work.base_mean, work.base_std, work.base_low,
                work.base_high,
            )
            rate = truncated_normal(
                rng, work.rate_mean, work.rate_std, work.rate_low,
                work.rate_high,
            )
            entry = draws[keys] = (
                base, rate, JitterRow(derive(seed, "erase-jitter", *keys)),
            )
        self.base, self.rate, self._row = entry
        self._cursor = 0  # this model's next jitter value in the row

    # --- required work ---------------------------------------------------------

    def deterministic_pulses(self, age_kilocycles: float) -> int:
        """Required pulses at wear age ``x`` without erase-to-erase jitter."""
        return self._clamp(*self._work(age_kilocycles))

    def required_pulses(self, age_kilocycles: float) -> int:
        """Sample this erase's required pulses (adds small operation jitter)."""
        raw, floor = self._work(age_kilocycles)
        return self._clamp(raw + self._jitter(), floor)

    def jitter_batch(self, count: int) -> np.ndarray:
        """The next ``count`` erase-to-erase jitter values of this block.

        They are the values ``count`` successive :meth:`required_pulses`
        calls would draw, read from the block's row — the batch kernels
        buffer these draws and stay jitter-identical to the object path
        (see :mod:`repro.kernels.state`).
        """
        start = self._cursor
        self._cursor = end = start + int(count)
        return np.array(self._row.upto(end)[start:end], dtype=np.float64)

    def _jitter(self) -> float:
        cursor = self._cursor
        self._cursor = cursor + 1
        values = self._row.values
        if cursor >= len(values):
            values = self._row.upto(cursor + 1)
        return values[cursor]

    def _work(self, age_kilocycles: float) -> Tuple[float, float]:
        """``(base + rate * x^exponent, floor(x))`` at wear age ``x``."""
        if age_kilocycles < 0:
            raise EraseSchemeError("wear age must be non-negative")
        work = self.profile.erase_work
        raw = self.base + self.rate * age_kilocycles ** work.pec_exponent
        return raw, work.floor_pulses(int(round(age_kilocycles * 1000)))

    def _clamp(self, raw: float, floor: float) -> int:
        bounded = max(raw, floor)
        return int(max(1, min(self.profile.max_pulses, round(bounded))))

    def _baseline_damage(self, pulses: int) -> float:
        per_loop = self.profile.pulses_per_loop
        loops = (pulses + per_loop - 1) // per_loop
        return per_loop * self.profile.pulse_damage_prefix(loops)

    # --- derived characterization quantities -----------------------------------

    def nispe(self, age_kilocycles: float) -> int:
        """Loops a standard ISPE erase needs at wear age ``x``."""
        pulses = self.deterministic_pulses(age_kilocycles)
        return (pulses + self.profile.pulses_per_loop - 1) // self.profile.pulses_per_loop

    def min_t_ep_final_us(self, age_kilocycles: float) -> float:
        """``mtEP(NISPE)``: minimum final-loop pulse time (us)."""
        pulses = self.deterministic_pulses(age_kilocycles)
        per_loop = self.profile.pulses_per_loop
        final = 1 + (pulses - 1) % per_loop
        return final * self.profile.pulse_quantum_us

    def min_t_bers_us(self, age_kilocycles: float) -> float:
        """``mtBERS``: minimum total erase latency (us), incl. verify reads."""
        pulses = self.deterministic_pulses(age_kilocycles)
        loops = self.nispe(age_kilocycles)
        pulse_time = pulses * self.profile.pulse_quantum_us
        return pulse_time + loops * self.profile.t_vr_us

    def begin_erase(self, age_kilocycles: float) -> EraseState:
        """Create the erase-state ladder for one erase operation.

        The wear term and floor are evaluated once, for both the
        jittered required work and the :meth:`baseline_damage` reference
        that wear accounting divides by when the erase finishes.
        """
        raw, floor = self._work(age_kilocycles)
        return EraseState(
            required=self._clamp(raw + self._jitter(), floor),
            profile=self.profile,
            baseline_damage=self._baseline_damage(self._clamp(raw, floor)),
        )

    def baseline_damage(self, age_kilocycles: float) -> float:
        """Damage a Baseline ISPE erase would inflict at this wear age.

        The wear-age update divides actual damage by this reference, so
        Baseline cycling ages a block by exactly one cycle per erase.
        """
        return self._baseline_damage(self.deterministic_pulses(age_kilocycles))


@dataclass
class WearState:
    """Mutable wear history of one block.

    ``age_kilocycles`` is damage-normalized wear age: under Baseline
    ISPE it equals ``pec / 1000``; gentler schemes age slower.
    ``residual_fail_bits``/``residual_nispe`` capture deliberate
    under-erasure by AERO's aggressive mode, which the RBER model turns
    into the Figure 10b penalty.
    """

    age_kilocycles: float = 0.0
    pec: int = 0
    damage_total: float = 0.0
    residual_fail_bits: int = 0
    residual_nispe: int = 1

    def record_erase(
        self,
        model: BlockEraseModel,
        damage: float,
        residual_fail_bits: int = 0,
        nispe: int = 1,
        cycles: int = 1,
        baseline: Optional[float] = None,
    ) -> None:
        """Account one erase (or ``cycles`` identical coarse-step erases).

        ``baseline`` is the erase's :meth:`BlockEraseModel.baseline_damage`
        at the current wear age, when the caller already has it.
        """
        if baseline is None:
            baseline = model.baseline_damage(self.age_kilocycles)
        ratio = damage / baseline if baseline > 0 else 1.0
        step = (PROGRAM_WEAR_SHARE + ERASE_WEAR_SHARE * ratio) / 1000.0
        self.age_kilocycles += step * cycles
        self.pec += cycles
        self.damage_total += damage * cycles
        self.residual_fail_bits = residual_fail_bits
        self.residual_nispe = nispe

