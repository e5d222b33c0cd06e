"""NAND operation timing parameters.

Separated from :class:`repro.nand.chip_types.ChipProfile` because erase
schemes adjust timing at run time (DPES raises ``tPROG``; AERO sets
per-pulse ``tEP`` via SET FEATURE), while the profile's physics stay
fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.nand.chip_types import ChipProfile


@dataclass(frozen=True)
class NandTiming:
    """Operation latencies (microseconds) of one chip.

    Defaults come from the chip profile (Table 2 of the paper:
    ``tR`` 40 us, ``tPROG`` 350 us, ``tEP`` 3.5 ms, ``tVR`` ~100 us).
    ``suspend_overhead_us`` is the voltage ramp-down/up cost of
    suspending an in-flight erase pulse (practical erase suspension,
    Kim et al. ATC'19).
    """

    t_r_us: float
    t_prog_us: float
    t_ep_us: float
    t_vr_us: float
    pulse_quantum_us: float
    suspend_overhead_us: float = 40.0

    @classmethod
    def from_profile(cls, profile: ChipProfile) -> "NandTiming":
        """Datasheet timing of ``profile``."""
        return cls(
            t_r_us=profile.t_r_us,
            t_prog_us=profile.t_prog_us,
            t_ep_us=profile.t_ep_us,
            t_vr_us=profile.t_vr_us,
            pulse_quantum_us=profile.pulse_quantum_us,
        )

    def __post_init__(self) -> None:
        for name in ("t_r_us", "t_prog_us", "t_ep_us", "t_vr_us", "pulse_quantum_us"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"timing field {name!r} must be positive")
        if self.suspend_overhead_us < 0:
            raise ConfigError("suspend overhead must be non-negative")

    def erase_pulse_us(self, pulses: int) -> float:
        """Duration of an erase-pulse step of ``pulses`` quanta."""
        if pulses < 0:
            raise ConfigError("pulse count must be non-negative")
        return pulses * self.pulse_quantum_us
