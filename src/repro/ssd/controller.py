"""SSD controller: request admission, page fan-out, GC orchestration.

The controller splits each host request into page transactions, routes
them to the owning chip executors, tracks per-request completion, and
turns the FTL's instantly-planned GC jobs into timed transaction chains
(moves first, erase gated on their completion).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import SsdSpec
from repro.errors import SimulationError
from repro.ftl.ftl import PageLevelFtl
from repro.ftl.gc import GcJob
from repro.nand.geometry import PlaneAddress
from repro.sim.engine import Simulator
from repro.ssd.metrics import LatencyRecorder
from repro.ssd.request import (
    GcJobTracker,
    HostRequest,
    PageTransaction,
    TxnKind,
    TxnPriority,
)
from repro.ssd.scheduler import ChipExecutor
from repro.units import SECTOR_BYTES
from repro.workloads.trace import TraceRequest


class SsdController:
    """Front end of the simulated SSD."""

    def __init__(
        self,
        sim: Simulator,
        spec: SsdSpec,
        ftl: PageLevelFtl,
        executors: Dict[tuple, ChipExecutor],
    ):
        self.sim = sim
        self.spec = spec
        self.ftl = ftl
        self.executors = executors
        self.reads = LatencyRecorder("read")
        self.writes = LatencyRecorder("write")
        self.requests_completed = 0
        self.last_completion_us = 0.0
        self._next_request_id = 0
        self._gc_trackers: Dict[int, GcJobTracker] = {}
        self._gc_backlog: Dict[PlaneAddress, int] = {}

    # --- host path --------------------------------------------------------------

    def submit(self, trace_request: TraceRequest) -> HostRequest:
        """Admit one trace request at the current simulation time."""
        pages = self._page_span(trace_request)
        request = HostRequest(
            request_id=self._next_request_id,
            trace=trace_request,
            submit_us=self.sim.now,
            pages_total=len(pages),
        )
        self._next_request_id += 1
        if trace_request.is_read:
            for lpn in pages:
                self._submit_read_page(request, lpn)
        else:
            for lpn in pages:
                self._submit_write_page(request, lpn)
        return request

    def _page_span(self, trace_request: TraceRequest) -> List[int]:
        page_size = self.spec.geometry.page_size
        first_byte = trace_request.lba * SECTOR_BYTES
        last_byte = trace_request.end_lba * SECTOR_BYTES - 1
        first = first_byte // page_size
        last = last_byte // page_size
        limit = self.spec.logical_pages
        return [lpn % limit for lpn in range(first, last + 1)]

    def _submit_read_page(self, request: HostRequest, lpn: int) -> None:
        address = self.ftl.read(lpn)
        if address is None:
            # Never-written page: controller answers from the mapping
            # table without touching flash.
            self.sim.after(
                self.spec.controller_overhead_us,
                lambda: self._credit_page(request),
            )
            return
        txn = PageTransaction(
            kind=TxnKind.READ,
            priority=TxnPriority.USER_READ,
            channel=address.channel,
            chip=address.chip,
            address=address,
            lpn=lpn,
            request=request,
        )
        self.executors[(address.channel, address.chip)].submit(txn)

    def _submit_write_page(self, request: HostRequest, lpn: int) -> None:
        plan = self.ftl.write(lpn)
        address = plan.destination
        txn = PageTransaction(
            kind=TxnKind.PROGRAM,
            priority=TxnPriority.USER_WRITE,
            channel=address.channel,
            chip=address.chip,
            address=address,
            lpn=lpn,
            request=request,
            program_scale=plan.program_scale,
        )
        self.executors[(address.channel, address.chip)].submit(txn)
        for job in plan.gc_jobs:
            self._enqueue_gc_job(job)

    # --- GC orchestration -----------------------------------------------------------

    def _enqueue_gc_job(self, job: GcJob) -> None:
        backlog = self._gc_backlog.get(job.plane, 0)
        escalated = backlog >= self.spec.scheduler.gc_escalation_backlog
        job.escalated = escalated
        priority = TxnPriority.USER_WRITE if escalated else TxnPriority.GC
        self._gc_backlog[job.plane] = backlog + 1
        erase_txn = PageTransaction(
            kind=TxnKind.ERASE,
            priority=TxnPriority.USER_WRITE if escalated else TxnPriority.ERASE,
            channel=job.plane.channel,
            chip=job.plane.chip,
            erase_result=job.erase_result,
            gc_job=job,
        )
        tracker = GcJobTracker(job=job, erase_txn=erase_txn)
        self._gc_trackers[id(job)] = tracker
        executor = self.executors[(job.plane.channel, job.plane.chip)]
        for move in job.moves:
            read_txn = PageTransaction(
                kind=TxnKind.GC_READ,
                priority=priority,
                channel=move.source.channel,
                chip=move.source.chip,
                address=move.source,
                lpn=move.lpn,
                gc_job=job,
            )
            program_txn = PageTransaction(
                kind=TxnKind.GC_PROGRAM,
                priority=priority,
                channel=move.destination.channel,
                chip=move.destination.chip,
                address=move.destination,
                lpn=move.lpn,
                gc_job=job,
            )
            tracker.moves_remaining += 2
            tracker.move_txns.extend((read_txn, program_txn))
        if tracker.moves_remaining == 0:
            tracker.submitted_erase = True
            executor.submit(erase_txn)
        else:
            for txn in tracker.move_txns:
                self.executors[(txn.channel, txn.chip)].submit(txn)

    # --- completion handling -----------------------------------------------------------

    def on_txn_complete(self, txn: PageTransaction) -> None:
        """Callback wired into every chip executor."""
        if txn.request is not None:
            self._credit_page(txn.request)
            return
        if txn.gc_job is not None:
            self._credit_gc(txn)

    def _credit_page(self, request: HostRequest) -> None:
        request.pages_done += 1
        if request.pages_done < request.pages_total:
            return
        if request.complete_us is not None:
            raise SimulationError("request completed twice")
        request.complete_us = self.sim.now
        latency = request.latency_us or 0.0
        if request.is_read:
            self.reads.record(latency)
        else:
            self.writes.record(latency)
        self.requests_completed += 1
        self.last_completion_us = self.sim.now

    def _credit_gc(self, txn: PageTransaction) -> None:
        tracker = self._gc_trackers.get(id(txn.gc_job))
        if tracker is None:
            raise SimulationError("GC completion for unknown job")
        if txn.kind is TxnKind.ERASE:
            plane = tracker.job.plane
            self._gc_backlog[plane] = max(0, self._gc_backlog.get(plane, 1) - 1)
            del self._gc_trackers[id(txn.gc_job)]
            return
        tracker.moves_remaining -= 1
        if tracker.moves_remaining == 0 and not tracker.submitted_erase:
            tracker.submitted_erase = True
            executor = self.executors[
                (tracker.erase_txn.channel, tracker.erase_txn.chip)
            ]
            executor.submit(tracker.erase_txn)
