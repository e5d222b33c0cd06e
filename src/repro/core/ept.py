"""Erase-timing Parameter Table (EPT): Table 1 of the paper.

The EPT stores ``mtEP(i)`` — the erase-pulse latency (in 0.5 ms pulse
quanta) to use for loop ``EP(i)`` — indexed by the fail-bit range that
``F(i-1)`` fell into. Row 1 doubles as the *remainder erasure* row:
after the shallow-erasure probe, ``F(0)`` selects the remainder latency
``tRE``.

Two tables exist per chip:

* the **conservative** table (Table 1's ``t1`` column), which always
  applies enough pulses to erase the block completely, and
* the **aggressive** table (``t2``), which additionally spends the
  ECC-capability margin: it under-erases by up to two pulse quanta
  whenever the Figure 10b reliability analysis shows the resulting
  extra bit errors still fit under the RBER requirement.

Both the published values and builders are provided. The builders
reproduce the paper's methodology: the conservative table is the
worst-case ``remaining pulses`` observed per fail-bit range in an
m-ISPE characterization campaign; the aggressive table subtracts the
largest pulse skip whose projected MRBER stays within the requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigError
from repro.nand.chip_types import ChipProfile
from repro.nand.rber import RberModel

#: Pulse quanta consumed by the shallow-erasure probe (tSE = 1 ms).
SHALLOW_PULSES = 2

#: Bytes per EPT entry in the paper's overhead analysis (32-bit values).
ENTRY_BYTES = 4


@dataclass(frozen=True)
class EraseTimingTable:
    """Immutable EPT: ``rows[loop]`` maps fail-bit range -> pulse quanta.

    Range indices follow :meth:`ChipProfile.failbit_range_index`:
    index 0 is ``F <= gamma``, index k is ``(k-1)*delta < F <= k*delta``,
    and fail-bit counts above ``FHIGH`` (index ``f_high_deltas + 1``)
    always map to the default full-length pulse.
    """

    profile_name: str
    rows: Tuple[Tuple[int, ...], ...]
    default_pulses: int
    aggressive: bool = False

    def __post_init__(self) -> None:
        if not self.rows:
            raise ConfigError("EPT must have at least one row")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ConfigError("EPT rows must have equal width")
            for pulses in row:
                if not 0 <= pulses <= self.default_pulses:
                    raise ConfigError(
                        f"EPT entry {pulses} outside [0, {self.default_pulses}]"
                    )

    @property
    def loops(self) -> int:
        """Number of rows (maximum ISPE loops covered)."""
        return len(self.rows)

    @property
    def ranges(self) -> int:
        """Number of fail-bit ranges per row."""
        return len(self.rows[0])

    @property
    def entry_count(self) -> int:
        """Total entries (paper: T x L = 35 on the tested chips)."""
        return self.loops * self.ranges

    @property
    def storage_bytes(self) -> int:
        """DRAM footprint of the table (paper: 140 bytes)."""
        return self.entry_count * ENTRY_BYTES

    def row(self, loop: int) -> Tuple[int, ...]:
        """Row for predicting ``EP(loop)`` (1-indexed)."""
        if not 1 <= loop <= self.loops:
            raise ConfigError(f"EPT has no row for loop {loop}")
        return self.rows[loop - 1]

    def lookup_pulses(self, profile: ChipProfile, loop: int, fail_bits: int) -> int:
        """Pulse quanta for ``EP(loop)`` given ``F(loop-1) = fail_bits``."""
        return self.pulses_at(loop, profile.failbit_range_index(fail_bits))

    def pulses_at(self, loop: int, index: int) -> int:
        """Pulse quanta for ``EP(loop)`` after fail-bit range ``index``."""
        row = self.row(min(loop, self.loops))
        if index >= len(row):
            return self.default_pulses
        return row[index]


# --- published Table 1 -----------------------------------------------------------


def published_conservative_table(profile: ChipProfile) -> EraseTimingTable:
    """Table 1's ``t1`` column for the paper's 3D TLC chips.

    Row 1 caps at ``pulses_per_loop - SHALLOW_PULSES`` because it is the
    remainder-erasure row (shallow probe already spent 2 quanta and the
    first loop never exceeds the default ``tEP`` in total).
    """
    per_loop = profile.pulses_per_loop
    remainder_cap = per_loop - SHALLOW_PULSES
    width = profile.f_high_deltas + 1
    first = tuple(min(k + 1, remainder_cap) for k in range(width))
    other = tuple(min(k + 1, per_loop) for k in range(width))
    rows = (first,) + (other,) * (profile.max_loops - 1)
    return EraseTimingTable(
        profile_name=profile.name,
        rows=rows,
        default_pulses=per_loop,
        aggressive=False,
    )


def published_aggressive_table(profile: ChipProfile) -> EraseTimingTable:
    """Table 1's ``t2`` column: conservative minus the safe pulse skip.

    The skip schedule on the paper's chips: two quanta (1 ms) for loops
    1-3, one quantum for loop 4, none for loop 5 (conditions C1/C2 of
    Section 5.4).
    """
    conservative = published_conservative_table(profile)
    skip_by_loop = _published_skip_schedule(profile.max_loops)
    rows = tuple(
        tuple(max(0, pulses - skip_by_loop[index]) for pulses in row)
        for index, row in enumerate(conservative.rows)
    )
    return EraseTimingTable(
        profile_name=profile.name,
        rows=rows,
        default_pulses=conservative.default_pulses,
        aggressive=True,
    )


def _published_skip_schedule(max_loops: int) -> List[int]:
    schedule = []
    for loop in range(1, max_loops + 1):
        if loop <= 3:
            schedule.append(2)
        elif loop == 4:
            schedule.append(1)
        else:
            schedule.append(0)
    return schedule


# --- builders (characterization-driven methodology) ---------------------------------


@dataclass(frozen=True)
class FelpSample:
    """One characterization observation: F before a loop vs pulses needed.

    ``loop`` is the EP step about to run (1-indexed; 1 also covers the
    shallow-remainder case), ``fail_bits`` the verify-read count before
    it, and ``remaining_pulses`` the ground-truth pulses the block still
    needed (measured by m-ISPE).
    """

    loop: int
    fail_bits: int
    remaining_pulses: int


def build_conservative_table(
    profile: ChipProfile,
    samples: Iterable[FelpSample],
) -> EraseTimingTable:
    """Derive the conservative EPT from characterization samples.

    Each (row, range) entry is the worst-case remaining-pulse count
    observed, so the table is conservative *by construction* on the
    characterized population; unobserved cells fall back to the
    published conservative prediction for their range.
    """
    per_loop = profile.pulses_per_loop
    width = profile.f_high_deltas + 1
    worst: Dict[Tuple[int, int], int] = {}
    for sample in samples:
        if sample.loop < 1 or sample.remaining_pulses < 0:
            raise ConfigError("invalid FELP sample")
        range_index = profile.failbit_range_index(sample.fail_bits)
        if range_index >= width:
            continue
        row = min(sample.loop, profile.max_loops)
        key = (row, range_index)
        worst[key] = max(worst.get(key, 0), sample.remaining_pulses)
    fallback = published_conservative_table(profile)
    rows: List[Tuple[int, ...]] = []
    for loop in range(1, profile.max_loops + 1):
        cap = per_loop - SHALLOW_PULSES if loop == 1 else per_loop
        row = []
        for range_index in range(width):
            observed = worst.get((loop, range_index))
            if observed is None:
                observed = fallback.row(loop)[range_index]
            row.append(min(max(observed, 1), cap))
        # Enforce monotonicity in the fail-bit range: more fail bits can
        # never need fewer pulses (physical regularity; also protects
        # against sparse sampling).
        for index in range(1, width):
            row[index] = max(row[index], row[index - 1])
        rows.append(tuple(row))
    return EraseTimingTable(
        profile_name=profile.name,
        rows=tuple(rows),
        default_pulses=per_loop,
        aggressive=False,
    )


def build_aggressive_table(
    profile: ChipProfile,
    conservative: EraseTimingTable,
    rber_model: RberModel | None = None,
    requirement_bits_per_kib: int | None = None,
    max_skip: int = 2,
) -> EraseTimingTable:
    """Apply the ECC-capability-margin analysis (Section 5.4).

    For each loop row, find the largest pulse skip ``s`` such that a
    block of typical wear for that loop count, left under-erased by
    ``s`` quanta, still meets the RBER requirement — the Figure 10b
    analysis. With the default requirement (63 bits/KiB) this
    reproduces Table 1's ``t2`` schedule (2/2/2/1/0); with the weaker
    requirements of Figure 17 the skips shrink.
    """
    rber = rber_model or RberModel(profile)
    requirement = (
        requirement_bits_per_kib
        if requirement_bits_per_kib is not None
        else profile.ecc.requirement_bits_per_kib
    )
    rows: List[Tuple[int, ...]] = []
    for loop in range(1, conservative.loops + 1):
        skip = _safe_skip(profile, rber, loop, requirement, max_skip)
        rows.append(
            tuple(max(0, pulses - skip) for pulses in conservative.row(loop))
        )
    return EraseTimingTable(
        profile_name=profile.name,
        rows=tuple(rows),
        default_pulses=conservative.default_pulses,
        aggressive=True,
    )


def _safe_skip(
    profile: ChipProfile,
    rber: RberModel,
    loop: int,
    requirement: float,
    max_skip: int,
) -> int:
    """Largest safe under-erase skip (pulse quanta) for loop ``loop``.

    Safety is judged at the *worst relevant* wear: the upper edge of the
    loop-count band (the oldest block still needing ``loop`` loops),
    capped at the age where a completely-erased block reaches the
    requirement anyway — under-erasing a block that old is moot because
    it is about to be retired regardless.
    """
    age = _evaluation_age(profile, rber, loop, requirement)
    complete = rber.wear_rber(age) + rber.retention_rber(age)
    best = 0
    for skip in range(1, max_skip + 1):
        residual = _expected_residual_fail_bits(profile, skip)
        projected = complete + rber.under_erase_penalty(residual, loop)
        if projected <= requirement:
            best = skip
        else:
            break
    return best


def _evaluation_age(
    profile: ChipProfile, rber: RberModel, loops: int, requirement: float
) -> float:
    """Worst-relevant wear age for the loop-``loops`` margin check."""
    work = profile.erase_work
    # Upper edge of the band: the mean block needs `loops` full loops.
    target = profile.pulses_per_loop * loops
    if target <= work.base_mean:
        band_upper = 0.05
    else:
        band_upper = (
            (target - work.base_mean) / work.rate_mean
        ) ** (1.0 / work.pec_exponent)
    return max(0.05, min(band_upper, _crossing_age(rber, requirement)))


def _crossing_age(rber: RberModel, requirement: float) -> float:
    """Age at which a completely erased block reaches ``requirement``."""
    low, high = 0.0, 16.0
    if rber.wear_rber(high) + rber.retention_rber(high) < requirement:
        return high
    for _ in range(60):
        mid = 0.5 * (low + high)
        if rber.wear_rber(mid) + rber.retention_rber(mid) < requirement:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def _expected_residual_fail_bits(profile: ChipProfile, skip: int) -> int:
    """Expected fail-bit count left by under-erasing ``skip`` quanta.

    Mirrors the verify-read model: a block needing one more pulse shows
    ~gamma fail bits; ``s`` more pulses show ``gamma + (s - 1.25)*delta``
    on average (the -0.25*delta being the mean of the distribution's
    offset term).
    """
    if skip <= 0:
        return 0
    if skip == 1:
        return profile.gamma
    return int(profile.gamma + (skip - 1.25) * profile.delta)


def format_table(profile: ChipProfile, table: EraseTimingTable) -> str:
    """ASCII rendering of an EPT in milliseconds (Table 1 layout)."""
    edges = profile.failbit_range_edges()
    headers = ["<=gamma"] + [f"<={k}d" for k in range(1, len(edges))]
    quantum_ms = profile.pulse_quantum_us / 1000.0
    lines = [
        f"EPT ({table.profile_name}, "
        f"{'aggressive' if table.aggressive else 'conservative'}), ms:"
    ]
    lines.append("NISPE | " + " | ".join(f"{h:>7}" for h in headers))
    for loop in range(1, table.loops + 1):
        cells = " | ".join(
            f"{pulses * quantum_ms:7.1f}" for pulses in table.row(loop)
        )
        lines.append(f"{loop:5d} | {cells}")
    return "\n".join(lines)
