"""FTL bookkeeping counters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class FtlStats:
    """Cumulative FTL activity counters."""

    host_reads: int = 0
    host_writes: int = 0
    unmapped_reads: int = 0
    gc_page_moves: int = 0
    gc_jobs: int = 0
    erases: int = 0
    erase_latency_total_us: float = 0.0
    erase_pulses_total: int = 0
    wear_leveling_moves: int = 0
    per_scheme_erases: Dict[str, int] = field(default_factory=dict)
    #: Erase latencies not yet flushed into the telemetry histogram.
    pending_erase_latencies_us: List[float] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def write_amplification(self) -> float:
        """(host writes + GC moves) / host writes."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_page_moves) / self.host_writes

    @property
    def mean_erase_latency_us(self) -> float:
        if self.erases == 0:
            return 0.0
        return self.erase_latency_total_us / self.erases

    def record_erase(self, scheme: str, latency_us: float, pulses: int) -> None:
        self.erases += 1
        self.erase_latency_total_us += latency_us
        self.erase_pulses_total += pulses
        self.per_scheme_erases[scheme] = self.per_scheme_erases.get(scheme, 0) + 1
        # Telemetry takes these at the end of the replay
        # (:func:`repro.telemetry.instruments.observe_replay`).
        self.pending_erase_latencies_us.append(latency_us)
