"""FELP: Fail-bit-count-based Erase Latency Prediction.

The predictor is the decision layer between verify-read feedback and
the next erase-pulse command: given ``F(i-1)``, it chooses the latency
for ``EP(i)`` from the Erase-timing Parameter Table, falling back to
the default full-length pulse when the count is above ``FHIGH``
(no reduction possible, Figure 6a) and flagging aggressive predictions
so the scheme knows an under-erased verify result is intentional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.ept import EraseTimingTable
from repro.errors import ConfigError
from repro.nand.chip_types import ChipProfile


@dataclass(frozen=True)
class PulsePrediction:
    """Outcome of one FELP lookup."""

    #: Loop the prediction is for (EP index, 1-based).
    loop: int
    #: Fail-bit count the prediction was based on.
    fail_bits: int
    #: Fail-bit range index (profile.failbit_range_index).
    range_index: int
    #: Pulse quanta to apply.
    pulses: int
    #: True when the pulse count is below the default (a real reduction).
    reduced: bool
    #: True when the aggressive (ECC-margin) table produced the value.
    aggressive: bool


#: One FELP decision: ``(pulses, reduced, aggressive)``.
Decision = Tuple[int, bool, bool]


class FelpPredictor:
    """EPT-backed erase-latency prediction (conservative + aggressive).

    Every decision is precomputed into :attr:`table`:
    ``table[use_margin][row][range_index]`` is the :data:`Decision` for
    ``EP(loop)`` (row ``min(loop, rows) - 1``) after a verify-read in
    fail-bit range ``range_index``, the last range being "above FHIGH".
    The AERO scheme reads it at each ladder step, the AERO batch kernel
    indexes it as an array, and :meth:`predict` wraps it.
    """

    def __init__(
        self,
        profile: ChipProfile,
        conservative: EraseTimingTable,
        aggressive: Optional[EraseTimingTable] = None,
    ):
        if conservative.aggressive:
            raise ConfigError("conservative table flagged aggressive")
        if aggressive is not None and not aggressive.aggressive:
            raise ConfigError("aggressive table not flagged aggressive")
        self.profile = profile
        self.conservative = conservative
        self.aggressive = aggressive
        self.table = (self._decisions(None), self._decisions(aggressive))

    def _decisions(
        self, margin: Optional[EraseTimingTable]
    ) -> Tuple[Tuple[Decision, ...], ...]:
        """Decision rows with the ``margin`` table applied (None: none)."""
        conservative = self.conservative
        default = conservative.default_pulses
        ranges = len(self.profile.failbit_range_edges())
        loops = max(conservative.loops, margin.loops if margin else 0)
        rows = []
        for loop in range(1, loops + 1):
            row = []
            for index in range(ranges):
                pulses = base = conservative.pulses_at(loop, index)
                if margin is not None:
                    pulses = margin.pulses_at(loop, index)
                # An aggressive entry equal to the conservative one is not
                # an intentional under-erase (e.g. Table 1 row 5: t2 == t1).
                row.append((pulses, pulses < default, pulses != base))
            # Above FHIGH the default full pulse applies: no reduction room.
            row.append((default, False, False))
            rows.append(tuple(row))
        return tuple(rows)

    def predict(
        self,
        loop: int,
        fail_bits: int,
        use_margin: bool = False,
    ) -> PulsePrediction:
        """Predict the pulse count for ``EP(loop)`` from ``F(loop-1)``.

        Above ``FHIGH`` the default full pulse is used (no reduction
        room); between ``FPASS`` and ``FHIGH`` the EPT supplies the
        near-optimal latency. ``use_margin`` selects the aggressive
        table when one is available.
        """
        if loop < 1:
            raise ConfigError(f"EPT has no row for loop {loop}")
        rows = self.table[bool(use_margin)]
        range_index = self.profile.failbit_range_index(fail_bits)
        row = rows[min(loop, len(rows)) - 1]
        pulses, reduced, aggressive = row[range_index]
        return PulsePrediction(
            loop=loop,
            fail_bits=fail_bits,
            range_index=range_index,
            pulses=pulses,
            reduced=reduced,
            aggressive=aggressive,
        )

    def acceptance_threshold(self) -> int:
        """Max residual fail bits an aggressive erase may leave behind.

        The aggressive table under-erases by at most two pulse quanta,
        so the residual count should not exceed ~``gamma + 1.6 delta``;
        anything above signals a misprediction the scheme must repair.
        """
        return int(self.profile.gamma + 1.6 * self.profile.delta)
