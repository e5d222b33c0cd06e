"""Channel bus: serialized page transfers between controller and chips.

Chips on one channel share the data bus; cell operations (tR, tPROG,
erase pulses) proceed in parallel, but page transfers serialize. The
bus is modeled as a reservation timeline: a transaction reserves its
transfer slot when it starts, and the wait (if the bus is busy) adds to
its service time.
"""

from __future__ import annotations

from repro.errors import SimulationError


class ChannelBus:
    """Reservation-based bus occupancy for one channel."""

    def __init__(self, channel: int, transfer_us_per_page: float):
        if transfer_us_per_page < 0:
            raise SimulationError("transfer time must be non-negative")
        self.channel = channel
        self.transfer_us_per_page = transfer_us_per_page
        self._busy_until = 0.0
        self.transfers = 0

    def reserve(self, now: float, pages: int = 1) -> float:
        """Reserve a transfer starting at/after ``now``.

        Returns the *total delay* from ``now`` until the transfer
        completes (queueing wait + transfer time).
        """
        duration = pages * self.transfer_us_per_page
        start = max(now, self._busy_until)
        self._busy_until = start + duration
        self.transfers += pages
        return (start - now) + duration

    @property
    def busy_until(self) -> float:
        return self._busy_until
