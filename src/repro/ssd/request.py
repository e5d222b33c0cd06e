"""Host requests and page-level transactions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Optional

from repro.erase.scheme import EraseOperationResult
from repro.ftl.gc import GcJob
from repro.nand.geometry import PageAddress
from repro.workloads.trace import TraceRequest


class TxnKind(IntEnum):
    """NAND-level transaction types."""

    READ = 0
    PROGRAM = 1
    GC_READ = 2
    GC_PROGRAM = 3
    ERASE = 4


class TxnPriority(IntEnum):
    """Chip scheduling priority (lower value = served first).

    User reads outrank everything (the paper's scheduler extension);
    GC work and erases run in idle gaps unless the plane's backlog
    forces escalation.
    """

    USER_READ = 0
    USER_WRITE = 1
    GC = 2
    ERASE = 3


@dataclass
class HostRequest:
    """One trace request in flight."""

    request_id: int
    trace: TraceRequest
    submit_us: float
    pages_total: int
    pages_done: int = 0
    complete_us: Optional[float] = None

    @property
    def is_read(self) -> bool:
        return self.trace.is_read

    @property
    def latency_us(self) -> Optional[float]:
        if self.complete_us is None:
            return None
        return self.complete_us - self.submit_us


@dataclass
class PageTransaction:
    """One NAND operation queued at a chip."""

    kind: TxnKind
    priority: TxnPriority
    #: Channel/chip the transaction executes on.
    channel: int
    chip: int
    #: Physical page (None for unmapped reads and erases).
    address: Optional[PageAddress] = None
    lpn: Optional[int] = None
    #: Host request to credit on completion (None for GC/erase).
    request: Optional[HostRequest] = None
    #: tPROG scale for program transactions (DPES).
    program_scale: float = 1.0
    #: Erase payload (segments to replay).
    erase_result: Optional[EraseOperationResult] = None
    #: GC job this transaction belongs to (dependency tracking).
    gc_job: Optional[GcJob] = None
    enqueue_us: float = 0.0


@dataclass
class GcJobTracker:
    """Dependency tracker: the erase runs after all moves complete."""

    job: GcJob
    erase_txn: PageTransaction
    moves_remaining: int = 0
    submitted_erase: bool = False
    move_txns: List[PageTransaction] = field(default_factory=list)
