"""Block-level I/O trace model.

A trace is an ordered sequence of requests addressed in 512-byte
sectors, the common denominator of the Alibaba and MSRC trace formats
the paper evaluates with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import TraceError


@dataclass(frozen=True)
class TraceRequest:
    """One host I/O request."""

    #: Arrival time in microseconds from trace start.
    arrival_us: float
    #: Starting logical block address, in 512-byte sectors.
    lba: int
    #: Request length in sectors (>= 1).
    sectors: int
    #: True for reads, False for writes.
    is_read: bool

    def __post_init__(self) -> None:
        if self.arrival_us < 0 or self.lba < 0 or self.sectors < 1:
            raise TraceError(f"malformed request {self}")

    @property
    def end_lba(self) -> int:
        """First sector past the request."""
        return self.lba + self.sectors


class Trace:
    """An ordered request sequence with summary statistics."""

    def __init__(self, requests: Sequence[TraceRequest], name: str = "trace"):
        self.name = name
        self.requests: List[TraceRequest] = list(requests)
        last = -1.0
        for request in self.requests:
            if request.arrival_us < last:
                raise TraceError("trace requests must be time-ordered")
            last = request.arrival_us

    def __len__(self) -> int:
        return len(self.requests)

    # --- statistics (Table 3 columns) ----------------------------------------------

    @property
    def read_ratio(self) -> float:
        """Fraction of read requests."""
        if not self.requests:
            return 0.0
        return sum(1 for r in self.requests if r.is_read) / len(self.requests)

    @property
    def duration_us(self) -> float:
        """Arrival time of the last request."""
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_us

