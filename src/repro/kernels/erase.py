"""Vectorized batch erase kernels: one array op instead of N objects.

Each kernel advances an entire :class:`~repro.kernels.state.BlockArrayState`
by one erase per block, mirroring the decision ladder of the matching
object scheme in :mod:`repro.erase` / :mod:`repro.core.aero`:

* ``baseline`` / ``dpes`` / ``mispe`` / ``iispe`` are *deterministic*
  given each block's required-work draw (verify-read noise never flips
  a pass/fail on these ladders — an unfinished block reports at least
  ``~gamma`` fail bits, far above FPASS), so their kernels reproduce
  the object path's damage trajectory exactly, pulse for pulse.
* ``aero`` / ``aero_cons`` replay the full FELP ladder — shallow probe,
  EPT prediction, aggressive acceptance, misprediction repair — with
  masked array steps, reading the scheme's own FELP decision table
  (:attr:`~repro.core.felp.FelpPredictor.table`). Verify-read noise is
  drawn from the kernel's own generator (vectorized draws cannot
  interleave with the object path's shared stream), so trajectories
  match statistically, not bit for bit; the equivalence suite pins
  lifetime PEC and trajectory tolerance.

Kernels are stateful where the schemes are (i-ISPE loop memory, AERO
shallow-erase flags): create one kernel per block population and reuse
it across steps, exactly like a scheme instance in an object campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.aero import AeroStats
from repro.erase.dpes import (
    APPLICABLE_PEC_LIMIT,
    PROGRAM_WINDOW_RBER_OFFSET,
    VOLTAGE_REDUCTION,
)
from repro.errors import ConfigError, EraseFailure
from repro.kernels.state import BlockArrayState
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import (
    FAILBIT_SATURATION_DELTAS,
    _jump_efficiency,
    _skip_stress,
)


#: Kernel counters are the same eight fields the object path's
#: :class:`~repro.core.aero.AeroStats` tracks — one definition keeps
#: cross-engine stats comparisons in sync.
KernelStats = AeroStats


@dataclass
class BatchEraseResult:
    """Per-block outcome of one batch erase (arrays over the population).

    The batch counterpart of
    :class:`~repro.erase.scheme.EraseOperationResult`, reduced to the
    quantities the lifetime/characterization loops consume: damage,
    final ladder loop, residual under-erasure, and the DPES program
    window offset.
    """

    scheme: str
    damage: np.ndarray
    loops: np.ndarray
    total_pulses: np.ndarray
    residual_fail_bits: np.ndarray
    residual_nispe: np.ndarray
    rber_offset: np.ndarray
    mispredictions: np.ndarray
    accepted_under_erase: np.ndarray
    used_shallow_erase: np.ndarray


class BatchEraseKernel:
    """Base class: wear accounting shared by every scheme kernel."""

    scheme_key: str = "abstract"

    def __init__(self, profile: ChipProfile):
        self.profile = profile
        self.stats = KernelStats()

    def erase_batch(
        self,
        state: BlockArrayState,
        rng: np.random.Generator,
        cycles: int = 1,
    ) -> BatchEraseResult:
        """Erase every block of ``state`` once; account ``cycles`` cycles.

        Mirrors :meth:`EraseScheme.erase`: the scheme body resolves the
        ladder, then wear is recorded against the *pre-erase* baseline
        damage, with the under-erase residuals of accepted blocks.
        """
        result = self._run_batch(state, rng)
        nispe = np.where(
            result.accepted_under_erase,
            result.residual_nispe,
            np.maximum(1, result.loops),
        )
        state.record_erase(
            result.damage,
            np.where(result.accepted_under_erase, result.residual_fail_bits, 0),
            nispe,
            cycles=cycles,
        )
        per_loop = self.profile.pulses_per_loop
        self.stats.erases += state.count
        self.stats.pulses_applied += int(result.total_pulses.sum())
        self.stats.pulses_saved_vs_baseline += int(
            np.maximum(
                0, per_loop * np.maximum(result.loops, 1) - result.total_pulses
            ).sum()
        )
        return result

    def _run_batch(
        self, state: BlockArrayState, rng: np.random.Generator
    ) -> BatchEraseResult:
        raise NotImplementedError

    def _result(
        self,
        state: BlockArrayState,
        damage: np.ndarray,
        loops: np.ndarray,
        total_pulses: np.ndarray,
        **overrides: np.ndarray,
    ) -> BatchEraseResult:
        """Assemble a result with all-zero stochastic fields by default."""
        n = state.count
        fields = dict(
            residual_fail_bits=np.zeros(n, dtype=np.int64),
            residual_nispe=np.zeros(n, dtype=np.int64),
            rber_offset=np.zeros(n, dtype=np.float64),
            mispredictions=np.zeros(n, dtype=np.int64),
            accepted_under_erase=np.zeros(n, dtype=bool),
            used_shallow_erase=np.zeros(n, dtype=bool),
        )
        fields.update(overrides)
        return BatchEraseResult(
            scheme=self.scheme_key,
            damage=damage,
            loops=loops.astype(np.int64),
            total_pulses=total_pulses.astype(np.int64),
            **fields,
        )


class BaselineBatchKernel(BatchEraseKernel):
    """Conventional ISPE: full-length pulses, ladder up on failure."""

    scheme_key = "baseline"

    def _run_batch(self, state, rng):
        per_loop = self.profile.pulses_per_loop
        required = state.required_pulses()
        loops = (required + per_loop - 1) // per_loop
        damage = per_loop * state.cum_loop_damage[loops]
        return self._result(state, damage, loops, per_loop * loops)


class DpesBatchKernel(BatchEraseKernel):
    """DPES: the Baseline ladder at reduced VERASE while applicable."""

    scheme_key = "dpes"

    def __init__(self, profile: ChipProfile):
        super().__init__(profile)
        exponent = profile.wear.voltage_damage_exponent
        self.damage_factor = (1.0 - VOLTAGE_REDUCTION) ** exponent

    def _run_batch(self, state, rng):
        per_loop = self.profile.pulses_per_loop
        active = state.pec < APPLICABLE_PEC_LIMIT
        required = state.required_pulses()
        loops = (required + per_loop - 1) // per_loop
        damage = per_loop * state.cum_loop_damage[loops]
        damage = damage * np.where(active, self.damage_factor, 1.0)
        rber_offset = np.where(active, PROGRAM_WINDOW_RBER_OFFSET, 0.0)
        return self._result(
            state, damage, loops, per_loop * loops, rber_offset=rber_offset
        )


class MispeBatchKernel(BatchEraseKernel):
    """m-ISPE: 0.5 ms sub-pulses, voltage step every ``pulses_per_loop``."""

    scheme_key = "mispe"

    def __init__(self, profile: ChipProfile):
        super().__init__(profile)
        per_loop = profile.pulses_per_loop
        loop_of_pulse = 1 + np.arange(profile.max_pulses) // per_loop
        per_pulse = np.array(
            [profile.pulse_damage(int(k)) for k in loop_of_pulse]
        )
        #: ``damage_by_pulses[p]`` = damage of the first ``p`` sub-pulses.
        self.damage_by_pulses = np.concatenate(([0.0], np.cumsum(per_pulse)))

    def _run_batch(self, state, rng):
        per_loop = self.profile.pulses_per_loop
        required = state.required_pulses()
        loops = (required + per_loop - 1) // per_loop
        damage = self.damage_by_pulses[required]
        return self._result(state, damage, loops, required)

    def measure_batch(
        self, state: BlockArrayState
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`MIspeScheme.measure` headline quantities.

        Returns ``(short_loops, nispe, min_t_bers_us)`` without erasing
        the array (the characterization campaigns sample fresh clones
        per PEC point, so there is no wear to advance). Consumes one
        jitter draw per block, like the object path's erase.
        """
        profile = self.profile
        required = state.required_pulses()
        per_loop = profile.pulses_per_loop
        nispe = (required + per_loop - 1) // per_loop
        min_t_bers_us = (
            required * profile.pulse_quantum_us + nispe * profile.t_vr_us
        )
        return required, nispe, min_t_bers_us

    def trace_batch(
        self, state: BlockArrayState, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized m-ISPE fail-bit traces (Figures 7/8 campaigns).

        Returns ``(required, traces)`` where ``traces[i, j]`` is the
        verify-read count of block ``i`` after its ``j+1``-th sub-pulse
        (columns beyond ``required[i] - 1`` are padding). The verify
        model matches :meth:`EraseState.verify_read` draw for draw in
        distribution; the draws come from ``rng``, so traces are
        deterministic per kernel seed.
        """
        required = state.required_pulses()
        width = int(required.max())
        pulses = np.arange(1, width + 1)
        remaining = required[:, None] - pulses[None, :]
        traces = _failbit_model(self.profile, remaining, rng)
        return required, traces


class IispeBatchKernel(BatchEraseKernel):
    """i-ISPE: jump to the memorized loop; partial credit on 3D chips."""

    scheme_key = "iispe"

    def __init__(self, profile: ChipProfile):
        super().__init__(profile)
        self.efficiency = _jump_efficiency(profile)
        self.skip_stress = _skip_stress(profile)
        self._memory: Optional[np.ndarray] = None

    def _run_batch(self, state, rng):
        per_loop = self.profile.pulses_per_loop
        n = state.count
        if self._memory is None:
            self._memory = np.ones(n, dtype=np.int64)
        elif self._memory.shape[0] != n:
            raise ConfigError(
                "i-ISPE kernel is bound to a different block population"
            )
        memory = self._memory
        required = state.required_pulses()
        baseline_loops = (required + per_loop - 1) // per_loop
        jumped = memory > 1
        # Jump credit per EraseState.start_loop: efficiency * 7 * (m-1),
        # then one full pulse step capped at the loop-m ceiling.
        first_progress = np.minimum(
            per_loop * memory,
            self.efficiency * per_loop * (memory - 1) + per_loop,
        )
        # After any continuous escalation past m, progress tops up to
        # 7*(l-1) + 7 = 7l, so the ladder completes at max(m+1, NISPE).
        final = np.where(
            jumped,
            np.where(
                first_progress >= required,
                memory,
                np.maximum(memory + 1, baseline_loops),
            ),
            baseline_loops,
        )
        start = np.where(jumped, memory, 1)
        span = (
            state.cum_loop_damage[final] - state.cum_loop_damage[start - 1]
        )
        stress = np.where(
            jumped, 1.0 + self.skip_stress * (memory - 1), 1.0
        )
        damage = per_loop * span * stress
        total_pulses = per_loop * (final - start + 1)
        self._memory = final.astype(np.int64)
        return self._result(state, damage, final, total_pulses)


def _failbit_model(
    profile: ChipProfile,
    remaining: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized Figure 7 fail-bit model, shape-generic over ``remaining``.

    Mirrors :meth:`EraseState.verify_read`: ~``gamma`` with one pulse
    left, ``gamma + delta*(r-1)`` plus the bin-composition offset with
    ``r`` left, saturation near ``8*delta``, multiplicative measurement
    noise. Works elementwise on any array shape (1-D verify steps, 2-D
    whole-trace matrices).
    """
    shape = remaining.shape
    u = rng.random(shape)
    gamma, delta = profile.gamma, profile.delta
    true_count = np.where(
        remaining <= 0,
        0.6 * profile.f_pass * u,
        np.where(
            remaining == 1,
            gamma * (0.85 + 0.30 * u),
            gamma + delta * (remaining - 1) + (-0.65 + 0.80 * u) * delta,
        ),
    )
    saturation = FAILBIT_SATURATION_DELTAS * delta
    true_count = np.minimum(
        true_count, saturation * (0.97 + 0.06 * rng.random(shape))
    )
    measured = true_count * (
        1.0 + rng.normal(0.0, profile.failbit_noise, shape)
    )
    return np.maximum(0, np.rint(measured)).astype(np.int64)


def _verify_batch(
    profile: ChipProfile,
    required: np.ndarray,
    progress: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized :meth:`EraseState.verify_read` at the current progress."""
    remaining = np.maximum(
        0, np.ceil(required - progress - 1e-9).astype(np.int64)
    )
    return _failbit_model(profile, remaining, rng)


class AeroBatchKernel(BatchEraseKernel):
    """AERO / AEROcons: the FELP ladder as masked array steps."""

    def __init__(self, scheme):
        """Bind the kernel to a configured :class:`AeroEraseScheme`."""
        super().__init__(scheme.profile)
        self.scheme_key = scheme.name
        predictor = scheme.predictor
        #: ``_felp[row, range_index]`` is the scheme's own FELP decision
        #: ``(pulses, reduced, aggressive)`` (:attr:`FelpPredictor.table`).
        self._felp = np.array(
            predictor.table[scheme.aggressive], dtype=np.int64
        )
        self._threshold = predictor.acceptance_threshold()
        self.shallow_pulses = scheme.shallow_pulses
        self.mispredict_rate = scheme.mispredict_rate
        self._edges = np.asarray(
            scheme.profile.failbit_range_edges(), dtype=np.int64
        )
        self._shallow: Optional[np.ndarray] = None

    # --- FELP prediction ------------------------------------------------------

    def _predict(
        self, loop: int, fail_bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized FELP lookup: ``(pulses, reduced, aggressive)`` arrays."""
        row = min(loop, self._felp.shape[0]) - 1
        decisions = self._felp[
            row, np.searchsorted(self._edges, fail_bits, side="left")
        ]
        return (
            decisions[:, 0],
            decisions[:, 1].astype(bool),
            decisions[:, 2].astype(bool),
        )

    def _inject(
        self,
        pulses: np.ndarray,
        reduced: np.ndarray,
        mask: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized misprediction injection (Figure 16 sensitivity)."""
        if self.mispredict_rate <= 0.0:
            return pulses
        candidates = mask & reduced & (pulses > 0)
        hits = candidates & (
            rng.random(pulses.shape[0]) < self.mispredict_rate
        )
        self.stats.injected_mispredictions += int(hits.sum())
        return np.where(hits, pulses - 1, pulses)

    # --- scheme body ----------------------------------------------------------

    def _run_batch(self, state, rng):
        profile = self.profile
        per_loop = profile.pulses_per_loop
        n = state.count
        if self._shallow is None:
            self._shallow = np.ones(n, dtype=bool)
        elif self._shallow.shape[0] != n:
            raise ConfigError(
                "AERO kernel is bound to a different block population"
            )
        required = state.required_pulses().astype(np.float64)
        pulse_damage = state.pulse_damage_lut

        progress = np.zeros(n)
        pulses_in_loop = np.zeros(n, dtype=np.int64)
        total_pulses = np.zeros(n, dtype=np.int64)
        damage = np.zeros(n)
        completed = np.zeros(n, dtype=bool)
        accepted = np.zeros(n, dtype=bool)
        residual_fail = np.zeros(n, dtype=np.int64)
        residual_nispe = np.zeros(n, dtype=np.int64)
        mispredictions = np.zeros(n, dtype=np.int64)
        fail_bits = np.zeros(n, dtype=np.int64)
        last_loop = np.ones(n, dtype=np.int64)
        used_shallow = self._shallow.copy()
        shallow_useful = np.zeros(n, dtype=bool)

        def apply_pulses(mask: np.ndarray, loop: int, counts) -> None:
            applied = np.where(mask, counts, 0)
            progress[...] = np.where(
                mask, np.minimum(per_loop * loop, progress + applied), progress
            )
            pulses_in_loop[...] = pulses_in_loop + applied
            total_pulses[...] = total_pulses + applied
            damage[...] = damage + applied * pulse_damage[loop]

        def verify(mask: np.ndarray) -> None:
            fail_bits[mask] = _verify_batch(
                profile, required[mask], progress[mask], rng
            )

        def accept(mask: np.ndarray, loop: int) -> None:
            if not mask.any():
                return
            accepted[mask] = True
            residual_fail[mask] = fail_bits[mask]
            residual_nispe[mask] = loop
            self.stats.aggressive_accepts += int(mask.sum())

        def settle(
            mask: np.ndarray,
            loop: int,
            reduced: np.ndarray,
            aggressive: np.ndarray,
        ) -> None:
            """Vectorized :meth:`AeroEraseScheme._settle_loop`."""
            passed = mask & (progress >= required)
            completed[passed] = True
            live = mask & ~passed
            acceptable = (
                live
                & aggressive
                & (fail_bits <= self._threshold)
                & (pulses_in_loop < per_loop)
            )
            accept(acceptable, loop)
            repair = live & ~acceptable & reduced
            if not repair.any():
                return
            count = int(repair.sum())
            mispredictions[repair] += 1
            self.stats.mispredictions += count
            while True:
                repair = repair & (pulses_in_loop < per_loop)
                if not repair.any():
                    break
                apply_pulses(repair, loop, 1)
                verify(repair)
                done = repair & (progress >= required)
                completed[done] = True
                repair &= ~done
                acceptable = (
                    repair
                    & aggressive
                    & (fail_bits <= self._threshold)
                    & (pulses_in_loop < per_loop)
                )
                accept(acceptable, loop)
                repair &= ~acceptable

        # --- loop 1: shallow probe or full default pulse ----------------------
        self.stats.shallow_probes += int(used_shallow.sum())
        everyone = np.ones(n, dtype=bool)
        apply_pulses(
            everyone, 1, np.where(used_shallow, self.shallow_pulses, per_loop)
        )
        verify(everyone)
        passed = progress >= required
        completed[passed] = True
        shallow_useful |= used_shallow & passed

        continued = used_shallow & ~passed
        if continued.any():
            pulses, reduced, aggressive = self._predict(1, fail_bits)
            skip_accept = continued & aggressive & (pulses == 0)
            accept(skip_accept, 1)
            shallow_useful |= skip_accept
            go = continued & ~skip_accept
            if go.any():
                remainder_cap = per_loop - self.shallow_pulses
                capped = np.minimum(pulses, remainder_cap)
                capped = self._inject(capped, reduced, go, rng)
                shallow_useful |= go & (
                    (self.shallow_pulses + capped) < per_loop
                )
                apply_pulses(go, 1, capped)
                verify(go)
                settle(go, 1, reduced, aggressive)

        # Persist the SEF outcome for blocks that ran the probe.
        self._shallow = np.where(used_shallow, shallow_useful, self._shallow)
        self.stats.shallow_useful += int((used_shallow & shallow_useful).sum())

        # --- loops 2..max: predict, pulse, settle -----------------------------
        for loop in range(2, profile.max_loops + 1):
            active = ~completed & ~accepted
            if not active.any():
                break
            pulses, reduced, aggressive = self._predict(loop, fail_bits)
            skip_accept = active & aggressive & (pulses == 0)
            accept(skip_accept, loop)
            go = active & ~skip_accept
            if not go.any():
                continue
            injected = self._inject(pulses, reduced, go, rng)
            last_loop[go] = loop
            # Entering the loop: continuous escalation tops progress up
            # to the previous loop's ceiling and resets the pulse budget.
            progress[...] = np.where(
                go, np.maximum(progress, per_loop * (loop - 1)), progress
            )
            pulses_in_loop[...] = np.where(go, 0, pulses_in_loop)
            apply_pulses(go, loop, injected)
            verify(go)
            settle(go, loop, reduced, aggressive)

        unresolved = ~completed & ~accepted
        if unresolved.any():
            raise EraseFailure(
                f"{self.scheme_key} batch kernel failed to erase "
                f"{int(unresolved.sum())} blocks",
                fail_bits=int(fail_bits[unresolved].max()),
                loops=profile.max_loops,
            )

        loops_final = np.maximum(np.maximum(last_loop, residual_nispe), 1)
        return self._result(
            state,
            damage,
            loops_final,
            total_pulses,
            residual_fail_bits=np.where(accepted, residual_fail, 0),
            residual_nispe=residual_nispe,
            mispredictions=mispredictions,
            accepted_under_erase=accepted,
            used_shallow_erase=used_shallow,
        )
