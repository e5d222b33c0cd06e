"""Erase suspension support: replaying timed segments with interrupts.

The paper's simulator services user I/O with priority over SSD-internal
operations, suspending an ongoing erase (Kim et al., ATC'19 [13]). The
erase *physics* in this library resolves instantly when the scheme
runs; the SSD simulator then replays the operation's timed segments on
the event clock. :class:`SegmentCursor` is that replay: it tracks how
much of the operation has elapsed, supports suspending at any instant
(pause mid-pulse, charge the ramp-down/up overhead on resume), and
reports when the operation finishes.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError


class SegmentCursor:
    """Replays an erase operation's segment durations with suspend/resume.

    The cursor is a pure time-accounting object over the operation's
    segment durations (us): it never touches block state (already
    mutated). Both replay engines drive it with simulator time: the
    object path's :class:`~repro.ssd.scheduler.ChipExecutor` through
    :meth:`suspend`/:meth:`resume`, the cell kernel on its fields
    directly (``count`` and ``pending``), so the two share every float.
    """

    __slots__ = ("durs", "idx", "consumed", "pending", "count", "suspended")

    def __init__(self, durs: List[float]):
        self.durs = durs
        self.idx = 0  # segment now elapsing
        self.consumed = 0.0  # of that segment
        self.pending = 0.0  # ramp overhead still to run
        self.count = 0  # suspensions so far
        self.suspended = False

    @property
    def finished(self) -> bool:
        """True when every segment has fully elapsed."""
        return self.idx >= len(self.durs)

    def remaining(self) -> float:
        """Time still needed to finish (excludes future suspensions)."""
        remaining = self.pending
        durs = self.durs
        idx = self.idx
        for index in range(idx, len(durs)):
            duration = durs[index]
            if index == idx:
                duration -= self.consumed
            remaining += duration
        return remaining

    def boundary(self) -> float:
        """Run time until the current segment completes.

        Practical erase suspension can only take effect at a pulse /
        verify-read boundary (an in-flight pulse must finish to avoid
        partially-stressed cells); pending ramp overhead counts toward
        the boundary.
        """
        if self.idx >= len(self.durs):
            return 0.0
        return self.pending + (self.durs[self.idx] - self.consumed)

    def advance(self, elapsed: float) -> float:
        """Consume up to ``elapsed`` of run time; returns time used.

        The cursor must be running (not suspended). The returned value
        is less than ``elapsed`` only when the operation finishes early.
        """
        if self.suspended:
            raise SimulationError("cannot advance a suspended operation")
        if elapsed < 0:
            raise SimulationError("cannot advance by negative time")
        used = 0.0
        budget = elapsed
        if self.pending > 0.0:
            step = min(self.pending, budget)
            self.pending -= step
            used += step
            budget -= step
        durs = self.durs
        idx = self.idx
        consumed = self.consumed
        while budget > 1e-12 and idx < len(durs):
            duration = durs[idx]
            step = min(duration - consumed, budget)
            consumed += step
            used += step
            budget -= step
            if consumed >= duration - 1e-12:
                idx += 1
                consumed = 0.0
        self.idx = idx
        self.consumed = consumed
        return used

    def suspend(self) -> None:
        """Pause the operation immediately (mid-pulse allowed).

        Resume pays the ramp overhead before useful progress continues
        (practical erase suspension).
        """
        if self.finished:
            raise SimulationError("cannot suspend a finished operation")
        if self.suspended:
            raise SimulationError("operation already suspended")
        self.suspended = True
        self.count += 1

    def resume(self, overhead_us: float) -> None:
        """Resume after a suspension, charging ``overhead_us`` of ramp."""
        if not self.suspended:
            raise SimulationError("operation is not suspended")
        self.suspended = False
        self.pending += overhead_us
