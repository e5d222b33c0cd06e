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
  EPT prediction, aggressive acceptance, misprediction repair — reading
  the scheme's own FELP decision table
  (:attr:`~repro.core.felp.FelpPredictor.table`). Each ladder stage
  steps only its live blocks: it gathers them by index, works on those
  short arrays and scatters the outcome back, so a stage's NumPy calls
  do not grow with the blocks already erased or accepted. Verify-read
  noise is drawn from the kernel's own generator (vectorized draws
  cannot interleave with the object path's shared stream), one draw
  per verified block in block order, so trajectories match the object
  path statistically, not bit for bit; the equivalence suite pins
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


#: The :class:`BatchEraseResult` fields a kernel may leave at zero.
_DEFAULT_FIELDS = (
    ("residual_fail_bits", np.int64),
    ("residual_nispe", np.int64),
    ("rber_offset", np.float64),
    ("mispredictions", np.int64),
    ("accepted_under_erase", bool),
    ("used_shallow_erase", bool),
)


class BatchEraseKernel:
    """Base class: wear accounting shared by every scheme kernel.

    A subclass resolves its scheme's ladder over a whole block state in
    ``_run_batch(state, rng)``, which returns a
    :class:`BatchEraseResult`.
    """

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
        loops = np.maximum(result.loops, 1)
        nispe = np.where(
            result.accepted_under_erase, result.residual_nispe, loops
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
            np.maximum(0, per_loop * loops - result.total_pulses).sum()
        )
        return result

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
        for name, dtype in _DEFAULT_FIELDS:
            if name not in overrides:
                overrides[name] = np.zeros(n, dtype=dtype)
        return BatchEraseResult(
            scheme=self.scheme_key,
            damage=damage,
            loops=loops.astype(np.int64, copy=False),
            total_pulses=total_pulses.astype(np.int64, copy=False),
            **overrides,
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
        self._failbits = _FailbitModel(profile)

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
        traces = self._failbits(remaining, rng)
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


class _FailbitModel:
    """Vectorized Figure 7 fail-bit model, shape-generic over ``remaining``.

    Mirrors :meth:`EraseState.verify_read`: ~``gamma`` with one pulse
    left, ``gamma + delta*(r-1)`` plus the bin-composition offset with
    ``r`` left, saturation near ``8*delta``, multiplicative measurement
    noise. Works elementwise on any array shape (1-D verify steps, 2-D
    whole-trace matrices); ``remaining`` at or below zero reads as a
    finished block.

    The three branches share one form, ``A + B * (C + D * u)``, with
    ``(A, B, C, D)`` looked up per pulses-remaining count: ``(0,
    0.6*FPASS, 0, 1)`` for a finished block, ``(0, gamma, 0.85, 0.30)``
    with one pulse left and ``(gamma + delta*(r-1), delta, -0.65,
    0.80)`` with ``r > 1``. Adding zero and scaling by one are exact,
    so each branch yields the floats of its direct formula.
    """

    def __init__(self, profile: ChipProfile):
        gamma, delta = profile.gamma, profile.delta
        rows = np.arange(profile.max_pulses + 1)
        coefficients = np.empty((rows.size, 4))
        coefficients[0] = (0.0, 0.6 * profile.f_pass, 0.0, 1.0)
        coefficients[1] = (0.0, gamma, 0.85, 0.30)
        coefficients[2:, 0] = gamma + delta * (rows[2:] - 1)
        coefficients[2:, 1:] = (delta, -0.65, 0.80)
        self._coefficients = coefficients
        self._saturation = FAILBIT_SATURATION_DELTAS * delta
        self._noise = profile.failbit_noise

    def __call__(
        self, remaining: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        shape = remaining.shape
        u = rng.random(shape)
        row = self._coefficients.take(remaining, axis=0, mode="clip")
        true_count = row[..., 0] + row[..., 1] * (row[..., 2] + row[..., 3] * u)
        true_count = np.minimum(
            true_count,
            self._saturation * (0.97 + 0.06 * rng.random(shape)),
        )
        measured = true_count * (1.0 + rng.normal(0.0, self._noise, shape))
        return np.maximum(0, np.rint(measured)).astype(np.int64)


class AeroBatchKernel(BatchEraseKernel):
    """AERO / AEROcons: the FELP ladder, stepping only live blocks."""

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
        self._failbits = _FailbitModel(scheme.profile)
        self._shallow: Optional[np.ndarray] = None

    # --- FELP prediction ------------------------------------------------------

    def _predict(
        self, loop: int, fail_bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized FELP lookup: ``(pulses, reduced, aggressive)`` arrays."""
        row = min(loop, self._felp.shape[0]) - 1
        decisions = self._felp[
            row, self._edges.searchsorted(fail_bits, side="left")
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
        index: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized misprediction injection (Figure 16 sensitivity).

        ``pulses``/``reduced`` belong to the blocks ``index`` of a
        ``count``-block population; one uniform is drawn per block of
        the population, pulsed or not, so the stream does not depend on
        how many blocks a loop pulses.
        """
        if self.mispredict_rate <= 0.0:
            return pulses
        hits = (
            reduced
            & (pulses > 0)
            & (rng.random(count)[index] < self.mispredict_rate)
        )
        self.stats.injected_mispredictions += int(np.count_nonzero(hits))
        return pulses - hits

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
        stats = self.stats
        failbits = self._failbits
        threshold = self._threshold
        required = state.required_pulses()
        pulse_damage = state.pulse_damage_lut

        accepted = np.zeros(n, dtype=bool)
        residual_fail = np.zeros(n, dtype=np.int64)
        residual_nispe = np.zeros(n, dtype=np.int64)
        mispredictions = np.zeros(n, dtype=np.int64)
        last_loop = np.ones(n, dtype=np.int64)

        def accept(index: np.ndarray, fail_bits: np.ndarray, loop: int) -> None:
            accepted[index] = True
            residual_fail[index] = fail_bits
            residual_nispe[index] = loop
            stats.aggressive_accepts += index.size

        # --- loop 1: shallow probe or full default pulse ----------------------
        # Every block pulses once; the first pulses never reach past
        # loop 1's ceiling, so progress is the pulses applied.
        used_shallow = self._shallow
        shallow_useful = used_shallow.copy()
        stats.shallow_probes += int(np.count_nonzero(used_shallow))
        progress = np.where(used_shallow, self.shallow_pulses, per_loop)
        total_pulses = progress.copy()
        damage = progress * pulse_damage[1]
        fail_bits = failbits(required - progress, rng)
        #: Blocks neither erased nor accepted yet.
        live = progress < required
        shallow_useful &= ~live

        def run_loop(loop: int, index: np.ndarray) -> None:
            """One ladder loop over the live blocks ``index``.

            Vectorized FELP decision, then :meth:`AeroEraseScheme._step`
            and ``_settle_loop``: pulse, verify, and pass, accept or
            repair with single pulses at the same voltage. Loop 1 here
            is the remainder after a shallow probe that did not pass.
            """
            fail = fail_bits[index]
            pulses, reduced, aggressive = self._predict(loop, fail)
            skip = aggressive & (pulses == 0)
            if skip.any():
                accept(index[skip], fail[skip], loop)
                live[index[skip]] = False
                if loop == 1:
                    shallow_useful[index[skip]] = True
                go = ~skip
                index = index[go]
                if not index.size:
                    return
                pulses, reduced, aggressive = (
                    pulses[go], reduced[go], aggressive[go]
                )
            if loop == 1:
                pulses = self._inject(
                    np.minimum(pulses, per_loop - self.shallow_pulses),
                    reduced, index, n, rng,
                )
                shallow_useful[index] = self.shallow_pulses + pulses < per_loop
                reached = progress[index]
                in_loop = reached
            else:
                pulses = self._inject(pulses, reduced, index, n, rng)
                last_loop[index] = loop
                # Entering the loop: continuous escalation tops progress
                # up to the previous loop's ceiling; the budget resets.
                reached = np.maximum(progress[index], per_loop * (loop - 1))
                in_loop = 0
            ceiling = per_loop * loop
            need = required[index]
            reached = np.minimum(ceiling, reached + pulses)
            in_loop = in_loop + pulses
            spent = damage[index] + pulses * pulse_damage[loop]
            fail = failbits(need - reached, rng)
            still = reached < need
            acceptable = (
                still & aggressive & (fail <= threshold) & (in_loop < per_loop)
            )
            if acceptable.any():
                accept(index[acceptable], fail[acceptable], loop)
                still &= ~acceptable
            # Misprediction repair: single pulses while the budget lasts.
            repair = (still & reduced).nonzero()[0]
            if repair.size:
                mispredictions[index[repair]] += 1
                stats.mispredictions += repair.size
            while repair.size:
                repair = repair[in_loop[repair] < per_loop]
                if not repair.size:
                    break
                in_loop[repair] += 1
                spent[repair] += pulse_damage[loop]
                reached[repair] = step = np.minimum(ceiling, reached[repair] + 1)
                fail[repair] = fail_r = failbits(need[repair] - step, rng)
                done = step >= need[repair]
                acceptable = (
                    ~done
                    & aggressive[repair]
                    & (fail_r <= threshold)
                    & (in_loop[repair] < per_loop)
                )
                if acceptable.any():
                    accept(index[repair[acceptable]], fail_r[acceptable], loop)
                    done |= acceptable
                still[repair[done]] = False
                repair = repair[~done]
            progress[index] = reached
            fail_bits[index] = fail
            damage[index] = spent
            if loop == 1:  # in_loop counts the probe's pulses too
                total_pulses[index] = in_loop
            else:
                total_pulses[index] += in_loop
            live[index] = still

        continued = (used_shallow & live).nonzero()[0]
        if continued.size:
            run_loop(1, continued)
        # Persist the SEF outcome for blocks that ran the probe; a block
        # that skipped it keeps its False flag.
        self._shallow = shallow_useful
        stats.shallow_useful += int(np.count_nonzero(shallow_useful))

        # --- loops 2..max: predict, pulse, settle -----------------------------
        for loop in range(2, profile.max_loops + 1):
            index = live.nonzero()[0]
            if not index.size:
                break
            run_loop(loop, index)

        if live.any():
            raise EraseFailure(
                f"{self.scheme_key} batch kernel failed to erase "
                f"{int(np.count_nonzero(live))} blocks",
                fail_bits=int(fail_bits[live].max()),
                loops=profile.max_loops,
            )

        loops_final = np.maximum(np.maximum(last_loop, residual_nispe), 1)
        return self._result(
            state,
            damage,
            loops_final,
            total_pulses,
            residual_fail_bits=residual_fail,
            residual_nispe=residual_nispe,
            mispredictions=mispredictions,
            accepted_under_erase=accepted,
            used_shallow_erase=used_shallow,
        )
