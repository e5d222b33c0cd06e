"""Calibrated chip profiles.

A :class:`ChipProfile` bundles every physical constant of one NAND flash
chip family: ISPE timing, the fail-bit regularities (gamma/delta from
Figure 7), the per-block erase-work distribution that reproduces
Figure 4, and the wear/RBER constants behind Figures 10 and 13.

Three profiles mirror the chips characterized in the paper:

* ``TLC_3D_48L`` - Samsung 48-layer 3D TLC (the 160-chip main study),
* ``TLC_2D_2XNM`` - 2x-nm 2D TLC (Figure 11 cross-check),
* ``MLC_3D_48L`` - 48-layer 3D MLC (Figure 11 cross-check).

The numerical values are calibrated so the virtual characterization
campaign in :mod:`repro.characterization` reproduces the shapes the
paper reports from silicon; they are not vendor data.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.units import ms, us


def repr_once(cls: type) -> type:
    """Make a frozen dataclass render its generated ``repr`` once per
    instance; later calls return the same text.

    Cache fingerprints hash this text (:mod:`repro.harness.cache`) and
    a resume pass fingerprints every job, so without the memo each job
    re-formats its grid point's shared ``SsdSpec`` and the module-level
    chip profile inside it. The memo lives on the instance and is never
    keyed by value: ``==``-equal specs can render differently
    (``controller_overhead_us=3`` vs ``3.0``) and so fingerprint
    differently. Apply it above ``@dataclass(frozen=True)``.
    """
    generated = cls.__repr__

    def __repr__(self) -> str:
        memo = vars(self)
        text = memo.get("_repr")
        if text is None:
            text = memo["_repr"] = generated(self)
        return text

    cls.__repr__ = __repr__
    return cls


@dataclass(frozen=True)
class EraseWorkModel:
    """Parameters of the per-block required-erase-work distribution.

    Work is measured in 0.5 ms *pulse units*; a block needing ``W`` pulse
    units erases after ``W`` m-ISPE sub-pulses, i.e. ``NISPE = ceil(W/7)``
    standard loops with ``mtEP = 0.5 * (1 + (W-1) mod 7)`` ms in the final
    loop (paper Section 5.1 methodology).
    """

    #: Mean / std / truncation of the PEC-0 work (process variation).
    base_mean: float = 4.5
    base_std: float = 0.9
    base_low: float = 2.0
    base_high: float = 7.0
    #: Mean / std / truncation of the per-block wear-sensitivity rate.
    rate_mean: float = 1.7
    rate_std: float = 0.55
    rate_low: float = 0.7
    rate_high: float = 3.4
    #: Super-linear PEC exponent; work grows as rate * (PEC/1000)^exponent.
    pec_exponent: float = 1.7
    #: Piecewise-linear lower bound on work vs PEC (kilocycles -> pulses).
    #: Encodes the paper's "every block needs >= 2 loops after 2K PEC".
    floor_points: Tuple[Tuple[float, float], ...] = (
        (0.0, 1.0),
        (1.0, 2.0),
        (2.0, 8.0),
        (3.0, 11.0),
        (4.0, 15.0),
        (5.0, 18.0),
        (8.0, 24.0),
    )

    @cached_property
    def _floor_x(self) -> Tuple[float, ...]:
        return tuple(x for x, _ in self.floor_points)

    def floor_pulses(self, pec: int) -> float:
        """Interpolated minimum work (pulses) at ``pec`` P/E cycles."""
        kilo = pec / 1000.0
        points = self.floor_points
        if kilo <= points[0][0]:
            return points[0][1]
        upper = bisect_left(self._floor_x, kilo)  # first x >= kilo
        if upper == len(points):
            return points[-1][1]
        (x0, y0), (x1, y1) = points[upper - 1], points[upper]
        frac = (kilo - x0) / (x1 - x0)
        return y0 + frac * (y1 - y0)


@dataclass(frozen=True)
class WearModel:
    """Erase-induced damage accounting and its RBER consequences.

    Damage is the voltage-weighted pulse integral: one 0.5 ms pulse in
    loop ``i`` (voltage ``VERASE(1) + (i-1) * dV``) contributes
    ``(1 + voltage_step * (i-1)) ** voltage_damage_exponent`` damage
    units. MRBER then grows as ``rber_scale * damage ** rber_exponent``
    on top of a fresh-block base and the retention-dependent term.

    ``rber_scale`` is *auto-calibrated* (see
    :meth:`repro.nand.rber.RberModel.calibrated`) so that Baseline ISPE
    crosses the RBER requirement at ``target_baseline_lifetime_pec``,
    pinning the absolute scale to the paper's Figure 13 endpoint.
    """

    #: Per-loop VERASE increment as a fraction of VERASE(1) (Delta-V / V1).
    voltage_step: float = 0.08
    #: Exponent translating voltage overdrive into cell damage.
    voltage_damage_exponent: float = 6.0
    #: Extra damage multiplier per skipped loop when a scheme jumps
    #: straight to a high-voltage loop (deep-erasure stress; penalizes
    #: i-ISPE in 3D NAND, paper Section 3.3).
    skip_stress_factor: float = 0.7
    #: MRBER of a fresh, completely erased block (bits / 1 KiB codeword).
    fresh_rber: float = 16.0
    #: Wear-age -> RBER exponent (super-linear late-life degradation).
    rber_exponent: float = 1.35
    #: Retention contribution at the reference bake (1 year at 30 C),
    #: grows linearly with wear age: retention_rber_per_kpec * age.
    retention_rber_per_kpec: float = 1.6
    #: Under-erase penalty: extra RBER per delta of residual fail bits
    #: (after the 7/8 data-randomization discount, paper Section 4).
    under_erase_rber_per_delta: float = 18.5
    #: Constant under-erase penalty once residual fail bits exceed FPASS.
    under_erase_rber_base: float = 4.0
    #: NISPE scaling of the under-erase penalty: penalty multiplier is
    #: ``clamp(nispe_factor_start - nispe_factor_slope*(N-1), min, start)``.
    #: Decreasing in N: at low wear the erased-state distribution is
    #: tight, so residual fail cells shift reads further (Figure 10b
    #: calibration; makes C1/C2 exactly the safe aggressive regions).
    nispe_factor_start: float = 1.26
    nispe_factor_slope: float = 0.22
    nispe_factor_min: float = 0.7
    #: Coupling between a block's erase difficulty (its wear-rate draw)
    #: and its RBER: hard-to-erase blocks are also more error-prone
    #: (both trace back to cell quality). Effective RBER age is
    #: ``age * (1 + coef * (rate/rate_mean - 1))``.
    rber_sensitivity_coef: float = 0.3
    #: Figure 13 calibration target: Baseline lifetime in P/E cycles.
    target_baseline_lifetime_pec: int = 5300


@dataclass(frozen=True)
class EccSpec:
    """ECC capability and the derived RBER requirement (Figure 10)."""

    #: Maximum correctable raw bit errors per 1 KiB codeword (LDPC).
    capability_bits_per_kib: int = 72
    #: Requirement with sampling-error safety margin; a block whose MRBER
    #: exceeds this is unusable (paper uses 63 of the 72).
    requirement_bits_per_kib: int = 63
    #: Codeword payload in bytes.
    codeword_bytes: int = 1024
    #: Hard-decision decode latency (hidden under sensing/transfer).
    decode_latency_us: float = 8.0
    #: Maximum read-retry attempts before declaring an uncorrectable error.
    max_read_retries: int = 8
    #: Multiplicative RBER reduction per read-retry step (VREF tuning).
    retry_rber_factor: float = 0.55


@repr_once
@dataclass(frozen=True)
class ChipProfile:
    """Complete calibrated description of one NAND chip family."""

    name: str
    #: Cell bits (3 = TLC, 2 = MLC).
    bits_per_cell: int
    #: 3D (charge-trap, vertical channel) vs 2D (floating-gate) process.
    is_3d: bool
    #: Default erase-pulse latency per ISPE loop (us). 3.5 ms in the paper.
    t_ep_us: float = ms(3.5)
    #: Verify-read latency (us). ~100 us in the paper.
    t_vr_us: float = us(100.0)
    #: Pulse quantum for tEP control via SET FEATURE (us). 0.5 ms grain.
    pulse_quantum_us: float = ms(0.5)
    #: Maximum ISPE loops before the chip reports erase failure.
    max_loops: int = 5
    #: Read latency (us), Table 2.
    t_r_us: float = us(40.0)
    #: Program latency (us), Table 2.
    t_prog_us: float = us(350.0)
    #: Fail-bit floor gamma: F when the block needs exactly one more
    #: pulse (Figure 7; "quite consistent at a certain value gamma").
    gamma: int = 500
    #: Fail-bit slope delta: F decrease per 0.5 ms pulse (Figure 7,
    #: ~5,000 on the tested chips).
    delta: int = 5000
    #: ISPE pass threshold FPASS (fail bits); loop succeeds below this.
    f_pass: int = 100
    #: FELP "no reduction possible" threshold FHIGH = 7 * delta.
    f_high_deltas: int = 7
    #: Relative measurement noise on fail-bit counts.
    failbit_noise: float = 0.04
    #: Rated endurance (P/E cycles); informational, no model reads it.
    endurance_pec: int = 10000
    erase_work: EraseWorkModel = field(default_factory=EraseWorkModel)
    wear: WearModel = field(default_factory=WearModel)
    ecc: EccSpec = field(default_factory=EccSpec)

    def __post_init__(self) -> None:
        if self.bits_per_cell not in (1, 2, 3, 4):
            raise ConfigError("bits_per_cell must be 1..4")
        if self.t_ep_us <= 0 or self.pulse_quantum_us <= 0:
            raise ConfigError("latencies must be positive")
        if self.t_ep_us % self.pulse_quantum_us != 0:
            raise ConfigError("t_ep must be a multiple of the pulse quantum")
        if not 0 < self.f_pass < self.gamma < self.delta:
            raise ConfigError("expect FPASS < gamma < delta")

    # --- derived quantities ----------------------------------------------------
    # The derived scalars below sit on the per-erase hot path (every
    # pulse/verify step reads them), so they are cached on first use;
    # the profile is frozen, so the cache can never go stale.

    @cached_property
    def pulses_per_loop(self) -> int:
        """Number of 0.5 ms pulse quanta in one default-latency EP step."""
        return int(round(self.t_ep_us / self.pulse_quantum_us))

    @cached_property
    def max_pulses(self) -> int:
        """Total pulse budget across ``max_loops`` ISPE loops."""
        return self.pulses_per_loop * self.max_loops

    @cached_property
    def f_high(self) -> int:
        """FHIGH threshold in fail bits (no tEP reduction above this)."""
        return self.f_high_deltas * self.delta

    def loop_voltage_factor(self, loop: int) -> float:
        """VERASE(loop) / VERASE(1), loop counted from 1."""
        if loop < 1:
            raise ConfigError("loop index counts from 1")
        return 1.0 + self.wear.voltage_step * (loop - 1)

    @cached_property
    def _pulse_damage_table(self) -> Tuple[float, ...]:
        return tuple(
            self.loop_voltage_factor(loop) ** self.wear.voltage_damage_exponent
            for loop in range(1, self.max_loops + 1)
        )

    @cached_property
    def _pulse_damage_prefix(self) -> Tuple[float, ...]:
        # _pulse_damage_prefix[n] = sum of pulse_damage over loops 1..n,
        # accumulated left to right (same floats as a running sum()).
        prefix = [0]
        total = 0
        for damage in self._pulse_damage_table:
            total = total + damage
            prefix.append(total)
        return tuple(prefix)

    def pulse_damage(self, loop: int) -> float:
        """Damage units contributed by one pulse quantum in ``loop``."""
        if 1 <= loop <= self.max_loops:
            return self._pulse_damage_table[loop - 1]
        factor = self.loop_voltage_factor(loop)
        return factor ** self.wear.voltage_damage_exponent

    def pulse_damage_prefix(self, loops: int) -> float:
        """Sum of :meth:`pulse_damage` over ladder loops ``1..loops``."""
        if loops <= self.max_loops:
            return self._pulse_damage_prefix[loops]
        total = self._pulse_damage_prefix[self.max_loops]
        for loop in range(self.max_loops + 1, loops + 1):
            total = total + self.pulse_damage(loop)
        return total

    @cached_property
    def _failbit_range_edges(self) -> Tuple[int, ...]:
        edges = [self.gamma]
        edges.extend(self.delta * k for k in range(1, self.f_high_deltas + 1))
        return tuple(edges)

    def failbit_range_edges(self) -> Tuple[int, ...]:
        """Upper edges of the FELP fail-bit ranges (Table 1 columns).

        Edges are ``(gamma, delta, 2*delta, ..., f_high_deltas*delta)``;
        a fail-bit count maps to the first edge that is >= the count.
        """
        return self._failbit_range_edges

    def failbit_range_index(self, fail_bits: int) -> int:
        """Index of the FELP range containing ``fail_bits``.

        Returns 0 for ``F <= gamma``, k for ``(k-1)*delta < F <= k*delta``,
        and ``f_high_deltas + 1`` for counts above FHIGH (no reduction).
        """
        return bisect_left(self._failbit_range_edges, fail_bits)


# --- the three characterized chip families ------------------------------------

#: Samsung 48-layer 3D TLC, the paper's primary 160-chip population.
TLC_3D_48L = ChipProfile(
    name="3D-TLC-48L",
    bits_per_cell=3,
    is_3d=True,
)

#: 2x-nm 2D TLC (Figure 11a: slightly larger delta spread, lower gamma).
TLC_2D_2XNM = ChipProfile(
    name="2D-TLC-2xnm",
    bits_per_cell=3,
    is_3d=False,
    gamma=400,
    delta=4200,
    failbit_noise=0.06,
    erase_work=EraseWorkModel(
        base_mean=4.0,
        base_std=1.0,
        rate_mean=1.8,
        rate_std=0.5,
    ),
    wear=WearModel(fresh_rber=18.0, target_baseline_lifetime_pec=4800),
)

#: 48-layer 3D MLC (Figure 11b: fewer states -> slightly lower RBER).
MLC_3D_48L = ChipProfile(
    name="3D-MLC-48L",
    bits_per_cell=2,
    is_3d=True,
    gamma=550,
    delta=5600,
    failbit_noise=0.05,
    erase_work=EraseWorkModel(
        base_mean=4.2,
        base_std=0.85,
        rate_mean=1.4,
        rate_std=0.4,
    ),
    wear=WearModel(fresh_rber=14.0, target_baseline_lifetime_pec=6000),
)

_PROFILES: Dict[str, ChipProfile] = {
    profile.name: profile
    for profile in (TLC_3D_48L, TLC_2D_2XNM, MLC_3D_48L)
}


def profile_by_name(name: str) -> ChipProfile:
    """Look up a built-in chip profile by its ``name`` field."""
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise ConfigError(f"unknown chip profile {name!r}; known: {known}")


def builtin_profiles() -> Tuple[ChipProfile, ...]:
    """All built-in chip profiles (main study + Figure 11 cross-checks)."""
    return tuple(_PROFILES.values())
