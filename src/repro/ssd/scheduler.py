"""Chip-level transaction scheduling with erase suspension.

One :class:`ChipExecutor` serializes the NAND operations of one chip
(die). Scheduling policy (the paper's MQSim extension, Section 7.1):

* strict priority: user reads > user writes > GC > erase, FIFO within
  a level;
* an in-flight erase is suspended the moment a user read arrives
  (practical erase suspension [13]); it resumes — paying the ramp
  overhead — once no higher-priority work is queued;
* GC jobs escalate to write priority when the plane's backlog exceeds
  the configured threshold ("no longer possible to delay").
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.config import SsdSpec
from repro.erase.suspension import SegmentCursor
from repro.errors import SimulationError
from repro.nand.chip import NandChip
from repro.sim.engine import Event, Simulator
from repro.ssd.channel import ChannelBus
from repro.ssd.request import PageTransaction, TxnKind, TxnPriority


class ChipExecutor:
    """Priority scheduler + timing replay for one chip."""

    def __init__(
        self,
        sim: Simulator,
        spec: SsdSpec,
        chip: NandChip,
        bus: ChannelBus,
        on_complete: Callable[[PageTransaction], None],
    ):
        self.sim = sim
        self.spec = spec
        self.chip = chip
        self.bus = bus
        self.on_complete = on_complete
        self.queues: Dict[TxnPriority, Deque[PageTransaction]] = {
            priority: deque() for priority in TxnPriority
        }
        self.busy = False
        self.current: Optional[PageTransaction] = None
        self._completion: Optional[Event] = None
        self._erase_cursor: Optional[SegmentCursor] = None
        self._erase_run_started: float = 0.0
        self._suspended_txn: Optional[PageTransaction] = None
        self._suspended_cursor: Optional[SegmentCursor] = None
        self._suspend_pending = False
        # stats
        self.erase_suspensions = 0
        self.erases_completed = 0
        self.erase_busy_us = 0.0
        self.txns_completed = 0

    # --- submission ---------------------------------------------------------------

    def submit(self, txn: PageTransaction) -> None:
        """Queue a transaction; may suspend an in-flight erase."""
        txn.enqueue_us = self.sim.now
        self.queues[txn.priority].append(txn)
        if (
            txn.priority is TxnPriority.USER_READ
            and self.spec.scheduler.erase_suspension
            and self._erase_in_flight()
        ):
            self._request_erase_suspension()
        self._dispatch()

    # --- dispatch loop ----------------------------------------------------------------

    def _dispatch(self) -> None:
        if self.busy:
            return
        for priority in TxnPriority:
            if (
                priority is TxnPriority.ERASE
                and self._suspended_txn is not None
            ):
                # The suspended erase is FIFO-older than anything in the
                # ERASE queue — resume it before starting a new erase,
                # otherwise later arrivals starve it and two erases
                # interleave on the chip.
                self._resume_erase()
                return
            queue = self.queues[priority]
            if queue:
                self._execute(queue.popleft())
                return

    def _execute(self, txn: PageTransaction) -> None:
        self.busy = True
        self.current = txn
        if txn.kind is TxnKind.ERASE:
            self._start_erase(txn)
            return
        duration = self._operation_duration(txn)
        self._completion = self.sim.after(duration, self._complete)

    def _operation_duration(self, txn: PageTransaction) -> float:
        """Service time for a read/program transaction (us)."""
        spec = self.spec
        timing = self.chip.timing
        overhead = spec.controller_overhead_us
        if txn.kind in (TxnKind.READ, TxnKind.GC_READ):
            cell_done = self.sim.now + overhead + timing.t_r_us
            transfer = self.bus.reserve(cell_done)
            decode = spec.profile.ecc.decode_latency_us
            return overhead + timing.t_r_us + transfer + decode
        if txn.kind in (TxnKind.PROGRAM, TxnKind.GC_PROGRAM):
            transfer = self.bus.reserve(self.sim.now + overhead)
            return (
                overhead + transfer + timing.t_prog_us * txn.program_scale
            )
        raise SimulationError(f"unsupported transaction kind {txn.kind}")

    # --- erase execution ----------------------------------------------------------------

    def _start_erase(self, txn: PageTransaction) -> None:
        if txn.erase_result is None:
            raise SimulationError("erase transaction without a result payload")
        cursor = SegmentCursor(
            [segment.duration_us for segment in txn.erase_result.segments]
        )
        self._erase_cursor = cursor
        self._erase_run_started = self.sim.now
        self._completion = self.sim.after(cursor.remaining(), self._complete)

    def _erase_in_flight(self) -> bool:
        return (
            self.busy
            and self.current is not None
            and self.current.kind is TxnKind.ERASE
            and self._erase_cursor is not None
            and not self._erase_cursor.finished
        )

    def _request_erase_suspension(self) -> None:
        """Ask the in-flight erase to suspend at its next pulse boundary.

        Practical erase suspension: the current pulse must finish
        (partially applied pulses cannot be safely aborted), and the
        number of suspensions per erase is capped to guarantee the
        erase's forward progress under read storms — beyond the cap the
        erase runs to completion and reads wait it out.
        """
        if self._suspend_pending:
            return
        cursor = self._erase_cursor
        if cursor is None:
            raise SimulationError("no erase to suspend")
        if cursor.count >= self.spec.scheduler.max_suspensions_per_erase:
            return
        elapsed = self.sim.now - self._erase_run_started
        consumed = cursor.advance(elapsed)
        self.erase_busy_us += consumed
        self._erase_run_started = self.sim.now
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        boundary = cursor.boundary()
        self._suspend_pending = True
        self.sim.after(boundary, self._finalize_suspension)

    def _finalize_suspension(self) -> None:
        cursor = self._erase_cursor
        txn = self.current
        if cursor is None or txn is None:
            raise SimulationError("suspension finalized with no erase")
        boundary = self.sim.now - self._erase_run_started
        consumed = cursor.advance(boundary)
        self.erase_busy_us += consumed
        self._suspend_pending = False
        if cursor.finished:
            # The boundary was the end of the operation.
            self._erase_cursor = None
            self.erases_completed += 1
            self.busy = False
            self.current = None
            self.txns_completed += 1
            self.on_complete(txn)
            self._dispatch()
            return
        cursor.suspend()
        self._suspended_txn = txn
        self._suspended_cursor = cursor
        self._erase_cursor = None
        self.current = None
        self.busy = False
        self.erase_suspensions += 1
        self._dispatch()

    def _resume_erase(self) -> None:
        txn = self._suspended_txn
        cursor = self._suspended_cursor
        if txn is None or cursor is None:
            raise SimulationError("no suspended erase to resume")
        self._suspended_txn = None
        self._suspended_cursor = None
        cursor.resume(self.spec.scheduler.suspend_overhead_us)
        self.busy = True
        self.current = txn
        self._erase_cursor = cursor
        self._erase_run_started = self.sim.now
        self._completion = self.sim.after(cursor.remaining(), self._complete)

    # --- completion -------------------------------------------------------------------

    def _complete(self) -> None:
        txn = self.current
        if txn is None:
            raise SimulationError("completion fired with no current txn")
        if txn.kind is TxnKind.ERASE:
            cursor = self._erase_cursor
            if cursor is not None:
                consumed = cursor.advance(cursor.remaining())
                self.erase_busy_us += consumed
            self._erase_cursor = None
            self.erases_completed += 1
        self.busy = False
        self.current = None
        self._completion = None
        self.txns_completed += 1
        self.on_complete(txn)
        self._dispatch()
