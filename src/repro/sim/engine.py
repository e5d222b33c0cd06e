"""Minimal, fast discrete-event engine.

The SSD model (like MQSim) is a network of components exchanging timed
callbacks. The engine is deliberately small: a monotonic clock, a heap
of ``(time, sequence, callback)`` entries, and a run loop. Sequence
numbers break ties deterministically (FIFO among same-time events), so
simulations are exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.errors import SchedulingError


@dataclass(frozen=True)
class Event:
    """Handle to a scheduled event; usable for cancellation."""

    time: float
    sequence: int
    _entry: list = field(repr=False, compare=False)

    def cancel(self) -> None:
        """Cancel the event (no-op if it already fired)."""
        self._entry[3] = None


class Simulator:
    """Event loop with a microsecond clock."""

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._sequence = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time (us)."""
        return self._now

    def at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now - 1e-9:
            raise SchedulingError(
                f"cannot schedule at {time} (now {self._now})"
            )
        sequence = next(self._sequence)
        entry = [max(time, self._now), sequence, None, callback]
        event = Event(time=entry[0], sequence=sequence, _entry=entry)
        heapq.heappush(self._heap, entry)
        return event

    def after(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` after ``delay`` microseconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        return self.at(self._now + delay, callback)

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        ``max_events`` bounds the number of callbacks (guard against
        runaway models). The loop pops each live entry exactly once:
        cancelled entries are pruned at the heap top and the fired
        event comes from a single ``heappop``.
        """
        fired = 0
        heap = self._heap
        while heap:
            if max_events is not None and fired >= max_events:
                raise SchedulingError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
            while heap and heap[0][3] is None:
                heapq.heappop(heap)
            if not heap:
                break
            time, _, __, callback = heapq.heappop(heap)
            self._now = time
            callback()
            fired += 1
