"""Structure-of-arrays block state for the vectorized batch kernels.

:class:`BlockArrayState` is the batch counterpart of a list of
:class:`~repro.nand.block.Block` objects: one NumPy array per physical
quantity (process-variation ``base``/``rate`` draws, damage-normalized
wear age, P/E count, residual fail bits / NISPE from the last erase)
instead of one Python object per block. The batch erase kernels in
:mod:`repro.kernels.erase` advance every block of the array per step,
which is what turns the lifetime and characterization hot loops from
O(blocks) Python into a handful of vectorized operations.

Bit-compatibility: the ``base``/``rate`` draws are those of the
blocks' :class:`~repro.nand.erase_model.BlockEraseModel` instances
(same seed derivation, same truncated-normal draws), and the per-erase
jitter is read from a :class:`JitterTable`, whose rows are the blocks'
own jitter rows (:class:`~repro.nand.erase_model.JitterRow`, the one
place a jitter stream is drawn), so the kernel path sees the same
required-pulse sequence as the object path.
:meth:`BlockArrayState.from_blocks` gives a state its own table; on
the lifetime kernel path every curve of one block set reads one shared
table instead (see :mod:`repro.lifetime.simulator`), so no ``Block``
is built there. The wear-age update mirrors
:meth:`~repro.nand.erase_model.WearState.record_erase` term for term,
with the wear term evaluated once per step for both the jittered
required work and the Baseline reference.
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import (
    ERASE_WEAR_SHARE,
    JITTER_CHUNK,
    PROGRAM_WEAR_SHARE,
    BlockEraseModel,
)

#: Ladder headroom beyond ``max_loops`` covered by the damage lookup
#: table (i-ISPE may escalate past the datasheet budget).
_LOOP_HEADROOM = 4


class JitterTable:
    """Append-only table of each block's erase-to-erase jitter prefix.

    Row ``i`` is block ``i``'s jitter stream from its model's cursor on
    (:meth:`BlockEraseModel.jitter_batch`, which reads the block's
    :class:`~repro.nand.erase_model.JitterRow`) and column ``j`` is
    every block's ``j``-th erase; the table takes
    :data:`~repro.nand.erase_model.JITTER_CHUNK` more columns whenever
    a reader asks past its end. The table is a pure function of the
    models' streams, so any number of states can read one table from
    column 0 and see the same draws. Fills hold a lock:
    two threads drawing at once would interleave the streams.
    """

    def __init__(self, models: Sequence[BlockEraseModel]):
        self._models = list(models)
        self._chunks: List[np.ndarray] = []
        self._lock = threading.Lock()

    def column(self, index: int) -> np.ndarray:
        """Every block's ``index``-th jitter draw (filling as needed)."""
        chunk, offset = divmod(index, JITTER_CHUNK)
        if chunk >= len(self._chunks):
            with self._lock:
                while chunk >= len(self._chunks):
                    drawn = np.stack(
                        [m.jitter_batch(JITTER_CHUNK) for m in self._models]
                    )
                    drawn.flags.writeable = False  # readers share it
                    self._chunks.append(drawn)
        return self._chunks[chunk][:, offset]

def block_draws(
    models: Sequence[BlockEraseModel],
) -> Tuple[np.ndarray, np.ndarray, JitterTable]:
    """The ``(base, rate, jitter)`` of :class:`BlockArrayState` for
    ``models``: read-only draw arrays and a jitter table of their own."""
    base = np.array([m.base for m in models], dtype=np.float64)
    rate = np.array([m.rate for m in models], dtype=np.float64)
    base.flags.writeable = rate.flags.writeable = False
    return base, rate, JitterTable(models)


class BlockArrayState:
    """Per-block state of a block population, stored as arrays.

    Mutable wear quantities (``age``, ``pec``, ``damage_total``,
    ``residual_fail_bits``, ``residual_nispe``) advance through
    :meth:`record_erase`, which assigns new arrays; the static
    process-variation draws (``base``, ``rate``, ``sensitivity``) are
    fixed at construction. The ``k``-th required-work draw of block
    ``i`` reads column ``k`` of ``jitter``, row ``i``.
    """

    def __init__(
        self,
        profile: ChipProfile,
        base: np.ndarray,
        rate: np.ndarray,
        jitter: JitterTable,
    ):
        n = base.shape[0]
        if not n:
            raise ConfigError("block array needs at least one block")
        self.profile = profile
        self.count = n
        self.base = base
        self.rate = rate
        self.sensitivity = rate / profile.erase_work.rate_mean
        self.age = np.zeros(n, dtype=np.float64)
        self.pec = np.zeros(n, dtype=np.int64)
        self.damage_total = np.zeros(n, dtype=np.float64)
        self.residual_fail_bits = np.zeros(n, dtype=np.int64)
        self.residual_nispe = np.ones(n, dtype=np.int64)
        points = profile.erase_work.floor_points
        self._floor_x = np.array([p[0] for p in points], dtype=np.float64)
        self._floor_y = np.array([p[1] for p in points], dtype=np.float64)
        max_loop = profile.max_loops + _LOOP_HEADROOM
        #: ``pulse_damage_lut[k]`` = damage of one pulse quantum in loop k.
        self.pulse_damage_lut = np.array(
            [0.0] + [profile.pulse_damage(k) for k in range(1, max_loop + 1)]
        )
        #: ``cum_loop_damage[k]`` = sum of pulse_damage over loops 1..k.
        self.cum_loop_damage = np.cumsum(self.pulse_damage_lut)
        self.jitter = jitter
        self._drawn = 0
        #: ``(age, (wear, floor))`` of the last :meth:`_wear` evaluation.
        self._wear_memo: tuple = (None, None)

    # --- construction ---------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Sequence[Block]) -> "BlockArrayState":
        """Mirror a list of ``Block`` objects, wear state included.

        The state reads jitter from a table of its own, drawn from the
        blocks' jitter streams.
        """
        if not blocks:
            raise ConfigError("block array needs at least one block")
        state = cls(
            blocks[0].profile, *block_draws([b.erase_model for b in blocks])
        )
        state.age = np.array([b.wear.age_kilocycles for b in blocks])
        state.pec = np.array([b.wear.pec for b in blocks], dtype=np.int64)
        state.damage_total = np.array([b.wear.damage_total for b in blocks])
        state.residual_fail_bits = np.array(
            [b.wear.residual_fail_bits for b in blocks], dtype=np.int64
        )
        state.residual_nispe = np.array(
            [b.wear.residual_nispe for b in blocks], dtype=np.int64
        )
        return state

    # --- required erase work --------------------------------------------------

    def draw_jitter(self) -> np.ndarray:
        """One erase-to-erase jitter draw per block: the next column.

        Block ``i`` sees its own jitter stream in order, identical to
        what ``required_pulses`` on the corresponding
        :class:`BlockEraseModel` would have drawn.
        """
        column = self.jitter.column(self._drawn)
        self._drawn += 1
        return column

    def _wear(self) -> tuple:
        """``(base + rate * age**exponent, floor(age))`` at the current age.

        Vectorized :meth:`BlockEraseModel._work` (same rounding of the
        floor's PEC), evaluated once per age array: the required-work
        draw and :meth:`record_erase`'s Baseline reference of one step
        share it. The memo is keyed by the age array's identity, so
        ages change by assigning a new array, never by writing into it.
        """
        age, terms = self._wear_memo
        if age is not self.age:
            work = self.profile.erase_work
            pec = np.rint(self.age * 1000.0)
            terms = (
                self.base + self.rate * self.age ** work.pec_exponent,
                np.interp(pec / 1000.0, self._floor_x, self._floor_y),
            )
            self._wear_memo = (self.age, terms)
        return terms

    def _clamp(self, raw: np.ndarray, floor: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`BlockEraseModel._clamp`."""
        bounded = np.rint(np.maximum(raw, floor))
        clipped = np.minimum(np.maximum(bounded, 1), self.profile.max_pulses)
        return clipped.astype(np.int64)

    def required_pulses(self, jitter: np.ndarray | None = None) -> np.ndarray:
        """Sample each block's required pulses for one erase."""
        if jitter is None:
            jitter = self.draw_jitter()
        wear, floor = self._wear()
        return self._clamp(wear + jitter, floor)

    # --- wear accounting ------------------------------------------------------

    def record_erase(
        self,
        damage: np.ndarray,
        residual_fail_bits: np.ndarray,
        nispe: np.ndarray,
        cycles: int = 1,
    ) -> None:
        """Account one batch erase (``cycles`` coarse-step cycles each).

        Mirrors :meth:`WearState.record_erase`: damage is normalized by
        the Baseline reference at the *pre-erase* wear age (the jitter-free
        required work, laddered in full loops), so Baseline cycling ages
        every block by exactly one cycle per erase.
        """
        per_loop = self.profile.pulses_per_loop
        loops = (self._clamp(*self._wear()) + per_loop - 1) // per_loop
        baseline = per_loop * self.cum_loop_damage[loops]
        ratio = np.where(baseline > 0, damage / baseline, 1.0)
        step = (PROGRAM_WEAR_SHARE + ERASE_WEAR_SHARE * ratio) / 1000.0
        self.age = self.age + step * cycles
        self.pec = self.pec + cycles
        self.damage_total = self.damage_total + damage * cycles
        self.residual_fail_bits = np.asarray(residual_fail_bits, dtype=np.int64)
        self.residual_nispe = np.asarray(nispe, dtype=np.int64)

