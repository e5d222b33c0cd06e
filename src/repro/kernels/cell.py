"""Event-exact lean replay of one grid cell's timed trace window.

``run_trace_kernel`` is the ``engine="kernel"`` fast path behind
:func:`repro.harness.cells.run_workload_cell`. It produces a
:class:`~repro.ssd.metrics.PerfReport` that is **bit-identical** to the
object path (``Ssd.run_trace``) — same latencies, same float
accumulation order, same RNG stream — while replacing the per-event
object machinery (``Simulator`` heap entries, ``PageTransaction``
dataclasses, ``ChipExecutor``/``SsdController`` callback chains, FTL
page-state objects) with flat locals, tuples, and lists on one merged
heap. ``precondition_kernel`` is the matching fast path for the
untimed steady-state fill that precedes the replay.

How identity is preserved:

* **Event order** — the heap holds ``(time, seq, kind, payload)``
  tuples and every schedule operation allocates the next ``seq`` in the
  exact control-flow position where the object path calls
  ``Simulator.after``/``at``, so same-time events fire in the same
  order. A chip has at most one completion in flight, so completions
  skip the heap entirely: they live in per-chip ``fire``/``fire_seq``
  slots the event loop merges with the heap head under the same
  ``(time, seq)`` order, and cancellation (erase suspension revoking a
  completion) just clears the slot.
* **Float arithmetic** — durations, bus reservations, and the
  suspend/resume segment cursor reproduce the object path's expression
  shapes (association order included), so every timestamp and every
  ``erase_busy_us`` increment is the same float.
* **Erase physics and RNG** — erases are not re-implemented at all:
  the kernel syncs the victim block's write pointer and calls the real
  ``ftl._erase_block``, so scheme code, ``ftl.rng`` draws, wear
  accounting, SEF/feature-command bookkeeping, and per-erase
  ``FtlStats`` counters are the object path's own, in the same order.
  Erase telemetry is flushed at the replay boundary
  (:func:`~repro.telemetry.instruments.observe_replay`), as on the
  object path.
* **Mutable device state** — block wear, scheme memories, and erase
  statistics live on the real objects throughout; page states, the
  mapping table, the per-plane allocators, and the bulk ``FtlStats``
  counters are tracked lean. Both kernels always flush the counters
  into ``FtlStats`` before they return (so every report and
  ``observe_replay`` read them current); only with ``write_back=True``
  (the default) do they also restore the page states, mapping and
  allocators, leaving the drive exactly as the object path would.
  :func:`~repro.harness.cells.run_workload_cell` drops its drive on
  return and passes ``write_back=False`` to both.

``kernel_replay_supported`` gates the fast path to configurations whose
FTL bookkeeping the kernel replicates exactly (the two built-in FTL
classes, no retired blocks); anything else falls back to the object
path via ``engine="auto"``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List, Optional

from repro.erase.scheme import EraseScheme
from repro.errors import MappingError, OutOfSpaceError, SimulationError
from repro.ftl.aeroftl import AeroFtl
from repro.ftl.allocator import WriteStream
from repro.ftl.ftl import PageLevelFtl
from repro.nand.block import PageState
from repro.rng import derive_rng
from repro.ssd.metrics import LatencyRecorder, PerfReport
from repro.telemetry.instruments import observe_replay
from repro.units import SECTOR_BYTES

# Heap event kinds. Never compared (the seq field is unique).
# Completions are not heap events: each chip has at most one in flight,
# held in its ``fire``/``fire_seq`` slots and merged with the heap head
# by the event loop.
_ADMIT, _CREDIT, _FINALIZE = 0, 1, 2

# Transactions are plain tuples
#   (kind, priority, chip, req, scale, durs, gc)
# with kind/priority matching the TxnKind/TxnPriority values. ``req``
# is a host-request list [total, done, submit_us, is_read]; ``gc`` is a
# GC tracker list [plane, erase_txn, moves_remaining, erase_submitted].
# Programs are the odd kinds, so one bit test picks them out.
_READ, _PROGRAM, _GC_READ, _GC_PROGRAM, _ERASE = 0, 1, 2, 3, 4

#: Heap-head time of an empty heap: later than any event.
_NEVER = float("inf")


class _Cursor:
    """Lean :class:`~repro.erase.suspension.SegmentCursor` (same floats)."""

    __slots__ = ("durs", "idx", "consumed", "pending", "count")

    def __init__(self, durs: List[float]):
        self.durs = durs
        self.idx = 0
        self.consumed = 0.0
        self.pending = 0.0
        self.count = 0  # suspensions so far

    def remaining(self) -> float:
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
        if self.idx >= len(self.durs):
            return 0.0
        return self.pending + (self.durs[self.idx] - self.consumed)

    def advance(self, elapsed: float) -> float:
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


class _Bus:
    __slots__ = ("busy_until", "tr")

    def __init__(self, tr: float):
        self.busy_until = 0.0
        self.tr = tr


class _Chip:
    __slots__ = (
        "q0", "q1", "q2", "q3", "busy", "current", "cursor", "run_started",
        "susp_txn", "susp_cursor", "susp_pending", "fire", "fire_seq",
        "suspensions", "erases", "erase_busy", "bus", "t_r", "t_prog",
        "a_read",
    )

    def __init__(self, bus: _Bus, t_r: float, t_prog: float, overhead: float):
        self.q0 = deque()
        self.q1 = deque()
        self.q2 = deque()
        self.q3 = deque()
        self.busy = False
        self.current = None
        self.cursor: Optional[_Cursor] = None
        self.run_started = 0.0
        self.susp_txn = None
        self.susp_cursor: Optional[_Cursor] = None
        self.susp_pending = False
        self.fire: Optional[float] = None  # in-flight completion time
        self.fire_seq = 0
        self.suspensions = 0
        self.erases = 0
        self.erase_busy = 0.0
        self.bus = bus
        self.t_r = t_r
        self.t_prog = t_prog
        self.a_read = overhead + t_r


class _Plane:
    __slots__ = (
        "alloc", "blocks", "free", "free_set", "active_host", "active_gc",
        "chip", "backlog", "pec_min", "pec_max",
    )

    def take_free(self) -> int:
        """Pop the plane's next free block (a new host or GC block)."""
        if not self.free:
            raise OutOfSpaceError(
                f"plane {self.alloc.address} has no free blocks"
            )
        block = self.free.popleft()
        self.free_set.discard(block)
        return block


class _LeanFtl:
    """Flat snapshot of the FTL plus the lean GC fast path.

    Shared by ``precondition_kernel`` and ``run_trace_kernel``: both
    write host pages inline into these lists, run GC through
    ``collect_one``, ``flush`` the bulk GC counters into ``FtlStats``
    before they return, and call ``restore`` (only with
    ``write_back=True``) to put the real page states, mapping table and
    allocators back.
    """

    __slots__ = (
        "planes", "lmap", "blk_obj", "blk_wp", "blk_valid", "blk_lpns",
        "page_count", "low_wm", "high_wm", "program_scale", "collect_one",
        "flush", "restore",
    )


def _lean_ftl(ftl) -> _LeanFtl:
    spec = ftl.spec
    stats = ftl.stats
    scheme = ftl.scheme
    page_count = spec.geometry.pages_per_block
    low_wm = spec.gc.low_watermark
    high_wm = spec.gc.high_watermark
    leveler = ftl.leveler
    wl_gap = leveler.pec_gap_threshold
    wl_cold = wl_gap // 4
    erase_block = ftl._erase_block

    blk_obj: List = []
    blk_wp: List[int] = []
    blk_valid: List[int] = []
    blk_lpns: List[List[Optional[int]]] = []
    blk_num: List[int] = []
    blk_pec: List[int] = []
    planes: List[_Plane] = []
    addr_to_idx = {}
    id_to_idx = {}
    for allocator in ftl.planes:
        plane = _Plane()
        plane.alloc = allocator
        plane.chip = None
        plane.backlog = 0
        idxs = []
        for block in allocator.all_blocks:
            index = len(blk_obj)
            blk_obj.append(block)
            addr_to_idx[block.address] = index
            id_to_idx[id(block)] = index
            wp = block.write_pointer
            blk_wp.append(wp)
            blk_valid.append(block.valid_count)
            lpns: List[Optional[int]] = [None] * page_count
            states = block._page_states
            stored = block._page_lpns
            for i in range(wp):
                if states[i] is PageState.VALID:
                    lpns[i] = stored[i]
            blk_lpns.append(lpns)
            blk_num.append(block.address.block)
            blk_pec.append(block.wear.pec)
            idxs.append(index)
        plane.blocks = idxs
        pecs = [blk_pec[b] for b in idxs]
        plane.pec_min = min(pecs)
        plane.pec_max = max(pecs)
        plane.free = deque(id_to_idx[id(b)] for b in allocator._free)
        plane.free_set = set(plane.free)
        host = allocator._active[WriteStream.HOST]
        gc_active = allocator._active[WriteStream.GC]
        plane.active_host = id_to_idx[id(host)] if host is not None else None
        plane.active_gc = (
            id_to_idx[id(gc_active)] if gc_active is not None else None
        )
        planes.append(plane)
    nplanes = len(planes)

    lmap = {
        lpn: (addr_to_idx[address.block_address], address.page)
        for lpn, address in ftl.mapping._map.items()
    }

    # Bulk GC counters accumulate locally until ``flush`` (nothing reads
    # them mid-run; per-erase stats update live via _erase_block).
    n_gc_moves = 0
    n_wl_moves = 0
    n_gc_jobs = 0
    n_interventions = 0

    def collect_one(plane):
        nonlocal n_gc_moves, n_wl_moves, n_gc_jobs, n_interventions
        host = plane.active_host
        gc_active = plane.active_gc
        free_set = plane.free_set
        blocks = plane.blocks
        # Wear leveling first: cold victim if the plane's PEC gap
        # demands it, else greedy least-valid. Manual single-pass scans
        # (strict < on the (key, block-number) pair keeps min()'s
        # first-minimal tie-breaking); the plane's PEC min/max are
        # maintained incrementally across erases.
        victim = None
        if plane.pec_max - plane.pec_min > wl_gap:
            cold_limit = plane.pec_min + wl_cold
            best_pec = best_num = 0
            for b in blocks:
                if (
                    b != host and b != gc_active and b not in free_set
                    and blk_wp[b] > 0
                ):
                    pec = blk_pec[b]
                    if pec <= cold_limit:
                        num = blk_num[b]
                        if (
                            victim is None or pec < best_pec
                            or (pec == best_pec and num < best_num)
                        ):
                            victim = b
                            best_pec = pec
                            best_num = num
            if victim is not None:
                n_interventions += 1
        if victim is not None:
            n_wl_moves += blk_valid[victim]
        else:
            best_valid = best_num = 0
            for b in blocks:
                if (
                    b != host and b != gc_active and b not in free_set
                    and blk_wp[b] > 0
                ):
                    valid = blk_valid[b]
                    num = blk_num[b]
                    if (
                        victim is None or valid < best_valid
                        or (valid == best_valid and num < best_num)
                    ):
                        victim = b
                        best_valid = valid
                        best_num = num
            if victim is None:
                return None
        moves = 0
        wp = blk_wp[victim]
        # A victim slot holds an LPN exactly while the mapping points at
        # it: every host overwrite and every GC move clears the old slot,
        # so each non-empty slot is a live page to move. Cache the GC
        # destination block's state in locals across the move loop
        # (victim is never the GC block); flushed on block switch and at
        # loop end. The victim's slots and valid count are reset wholesale
        # below — nothing reads them mid-loop.
        gb = plane.active_gc
        if gb is not None:
            gwp = blk_wp[gb]
            gval = blk_valid[gb]
            glpns = blk_lpns[gb]
        for lpn in blk_lpns[victim]:
            if lpn is None:
                continue
            if gb is None or gwp >= page_count:
                if gb is not None:
                    blk_wp[gb] = gwp
                    blk_valid[gb] = gval
                gb = plane.active_gc = plane.take_free()
                gwp = blk_wp[gb]
                gval = blk_valid[gb]
                glpns = blk_lpns[gb]
            glpns[gwp] = lpn
            lmap[lpn] = (gb, gwp)
            gwp += 1
            gval += 1
            moves += 1
        if gb is not None:
            blk_wp[gb] = gwp
            blk_valid[gb] = gval
        blk_lpns[victim] = [None] * page_count
        n_gc_moves += moves
        # Erase physics through the real FTL: scheme code, ftl.rng
        # draws, wear/SEF/feature accounting and per-erase stats all
        # happen on the real objects, in object-path order.
        # finish_erase only needs the write pointer synced (it resets
        # pages up to it).
        block = blk_obj[victim]
        block.write_pointer = wp
        result = erase_block(block)
        old_pec = blk_pec[victim]
        new_pec = block.wear.pec
        blk_pec[victim] = new_pec
        if new_pec > plane.pec_max:
            plane.pec_max = new_pec
        if old_pec == plane.pec_min:
            plane.pec_min = min(blk_pec[b] for b in blocks)
        blk_wp[victim] = 0
        blk_valid[victim] = 0
        plane.free.append(victim)
        free_set.add(victim)
        n_gc_jobs += 1
        return moves, [segment.duration_us for segment in result.segments]

    def flush():
        """Add the GC counters gathered since the last flush to the stats."""
        nonlocal n_gc_moves, n_wl_moves, n_gc_jobs, n_interventions
        stats.gc_page_moves += n_gc_moves
        stats.wear_leveling_moves += n_wl_moves
        stats.gc_jobs += n_gc_jobs
        leveler.interventions += n_interventions
        n_gc_moves = n_wl_moves = n_gc_jobs = n_interventions = 0

    def restore():
        """Write page states, mapping and allocators back to the drive."""
        for index, block in enumerate(blk_obj):
            wp = blk_wp[index]
            lpns = blk_lpns[index]
            states = block._page_states
            stored = block._page_lpns
            for i in range(wp):
                lpn = lpns[i]
                if lpn is not None:
                    states[i] = PageState.VALID
                    stored[i] = lpn
                else:
                    states[i] = PageState.INVALID
                    stored[i] = None
            for i in range(wp, page_count):
                states[i] = PageState.FREE
                stored[i] = None
            block.write_pointer = wp
            block.valid_count = blk_valid[index]
        ftl.mapping._map = {
            lpn: blk_obj[block].address.page(page)
            for lpn, (block, page) in lmap.items()
        }
        for plane in planes:
            allocator = plane.alloc
            allocator._free = deque(blk_obj[b] for b in plane.free)
            allocator._active[WriteStream.HOST] = (
                blk_obj[plane.active_host]
                if plane.active_host is not None else None
            )
            allocator._active[WriteStream.GC] = (
                blk_obj[plane.active_gc]
                if plane.active_gc is not None else None
            )

    lean = _LeanFtl()
    lean.planes = planes
    lean.lmap = lmap
    lean.blk_obj = blk_obj
    lean.blk_wp = blk_wp
    lean.blk_valid = blk_valid
    lean.blk_lpns = blk_lpns
    lean.page_count = page_count
    lean.low_wm = low_wm
    lean.high_wm = high_wm
    # None for the default 1.0 scale (every scheme but DPES).
    lean.program_scale = (
        None
        if type(scheme).program_scale is EraseScheme.program_scale
        else scheme.program_scale
    )
    lean.collect_one = collect_one
    lean.flush = flush
    lean.restore = restore
    return lean


def kernel_replay_supported(ssd) -> bool:
    """Whether the lean cell kernels can drive this SSD bit-exactly.

    The kernels replicate the page/mapping/allocator bookkeeping of the
    two built-in FTL classes; a subclassed FTL may override any of it,
    so only exact types qualify. Retired blocks never occur in grid
    cells (no lifetime cycling) and the lean GC does not model them.
    """
    ftl = ssd.ftl
    if type(ftl) not in (PageLevelFtl, AeroFtl):
        return False
    for allocator in ftl.planes:
        for block in allocator.all_blocks:
            if block.retired:
                return False
    return True


def precondition_kernel(
    ssd,
    footprint_pages: Optional[int] = None,
    overwrite_fraction: float = 0.6,
    write_back: bool = True,
) -> _LeanFtl:
    """Lean twin of :meth:`Ssd.precondition` (identical end state).

    Same write sequence, same GC decisions, same real erases (and
    therefore the same ``ftl.rng``/wear stream) as the object path —
    only the per-page bookkeeping is lean.

    Returns the lean FTL state. The bulk ``FtlStats`` counters are
    always flushed. With ``write_back=False`` the real page states,
    mapping and allocators are left stale and the caller must hand the
    returned state to :func:`run_trace_kernel` (via ``lean``) — saving
    one restore/re-snapshot round trip when the two kernels run back to
    back.
    """
    ftl = ssd.ftl
    spec = ssd.spec
    if footprint_pages is None:
        footprint_pages = spec.logical_pages
    if footprint_pages > spec.logical_pages:
        raise MappingError("footprint exceeds the logical space")
    lean = _lean_ftl(ftl)
    # The sequential fill, then the random overwrites. The overwrite
    # draw has its own stream, so drawing it before the fill's erases
    # changes nothing.
    lpns = list(range(footprint_pages))
    overwrites = int(footprint_pages * overwrite_fraction)
    if overwrites:
        rng = derive_rng(spec.seed, "precondition")
        lpns += rng.integers(0, footprint_pages, size=overwrites).tolist()
    planes = lean.planes
    nplanes = len(planes)
    lmap = lean.lmap
    lmap_get = lmap.get
    blk_wp = lean.blk_wp
    blk_valid = lean.blk_valid
    blk_lpns = lean.blk_lpns
    page_count = lean.page_count
    low_wm = lean.low_wm
    high_wm = lean.high_wm
    collect_one = lean.collect_one
    for lpn in lpns:
        # One host page write (same steps as ``PageLevelFtl.write``).
        plane = planes[lpn % nplanes]
        block = plane.active_host
        if block is None or blk_wp[block] >= page_count:
            block = plane.active_host = plane.take_free()
        page = blk_wp[block]
        blk_wp[block] = page + 1
        blk_valid[block] += 1
        blk_lpns[block][page] = lpn
        previous = lmap_get(lpn)
        lmap[lpn] = (block, page)
        if previous is not None:
            blk_valid[previous[0]] -= 1
            blk_lpns[previous[0]][previous[1]] = None
        free = plane.free
        while len(free) < low_wm:
            if collect_one(plane) is None or len(free) >= high_wm:
                break
    ftl.stats.host_writes += len(lpns)
    lean.flush()
    if write_back:
        lean.restore()
    return lean


def run_trace_kernel(
    ssd,
    trace,
    max_requests: Optional[int] = None,
    workload_name: Optional[str] = None,
    lean: Optional[_LeanFtl] = None,
    write_back: bool = True,
) -> PerfReport:
    """Replay ``trace`` with the lean cell kernel (report-identical).

    Mirrors :meth:`repro.ssd.ssd.Ssd.run_trace` exactly; see the module
    docstring for how identity is maintained. The caller is expected to
    have checked :func:`kernel_replay_supported`. ``lean`` accepts the
    not-yet-written-back state returned by
    ``precondition_kernel(..., write_back=False)``. The bulk
    ``FtlStats`` counters are always flushed before the report; with
    ``write_back=False`` the drive's page states, mapping and
    allocators are left stale (for a caller that drops the drive).
    """
    spec = ssd.spec
    ftl = ssd.ftl
    stats = ftl.stats
    geometry = spec.geometry
    page_size = geometry.page_size
    logical_pages = spec.logical_pages
    sched = spec.scheduler
    suspension_on = sched.erase_suspension
    soh = sched.suspend_overhead_us
    max_susp = sched.max_suspensions_per_erase
    gc_escal = sched.gc_escalation_backlog
    overhead = spec.controller_overhead_us
    decode = spec.profile.ecc.decode_latency_us

    if lean is None:
        lean = _lean_ftl(ftl)
    planes = lean.planes
    nplanes = len(planes)
    lmap = lean.lmap
    lmap_get = lmap.get
    blk_wp = lean.blk_wp
    blk_valid = lean.blk_valid
    blk_lpns = lean.blk_lpns
    blk_obj = lean.blk_obj
    page_count = lean.page_count
    low_wm = lean.low_wm
    high_wm = lean.high_wm
    program_scale = lean.program_scale
    collect_one = lean.collect_one
    push = heappush
    pop = heappop

    # --- timed front end ------------------------------------------------------
    buses = [_Bus(spec.page_transfer_us) for _ in range(geometry.channels)]
    chips: List[_Chip] = []
    chip_map = {}
    for chip in ssd.chips:
        lean_chip = _Chip(
            buses[chip.channel], chip.timing.t_r_us, chip.timing.t_prog_us,
            overhead,
        )
        chips.append(lean_chip)
        chip_map[(chip.channel, chip.chip)] = lean_chip
    blk_chip = [None] * len(blk_obj)
    for plane in planes:
        address = plane.alloc.address
        plane.chip = chip_map[(address.channel, address.chip)]
        for b in plane.blocks:
            blk_chip[b] = plane.chip

    requests = trace.requests
    if max_requests is not None:
        requests = requests[:max_requests]
    # Makespan floor: the replayed slice's horizon (same rule as the
    # object path).
    horizon = requests[-1].arrival_us if requests else 0.0

    # Admissions carry seqs 0..N-1, exactly like the object path's
    # pre-run ``sim.at`` calls; a time-ordered list of strictly
    # increasing seqs is already a valid min-heap.
    heap = []
    seq = 0
    for request in requests:
        heap.append((request.arrival_us, seq, _ADMIT, request))
        seq += 1

    reads = LatencyRecorder("read")
    writes = LatencyRecorder("write")
    read_record = reads.record
    write_record = writes.record
    completed = 0
    last_completion = 0.0
    now = 0.0
    n_host_reads = 0
    n_host_writes = 0
    n_unmapped = 0

    def request_suspension(chip, cursor):
        nonlocal seq
        if chip.susp_pending:
            return
        if cursor.count >= max_susp:
            return
        chip.erase_busy += cursor.advance(now - chip.run_started)
        chip.run_started = now
        chip.fire = None  # cancel the in-flight completion
        boundary = cursor.boundary()
        chip.susp_pending = True
        push(heap, (now + boundary, seq, _FINALIZE, chip))
        seq += 1

    def execute(chip, txn):
        nonlocal seq
        chip.busy = True
        chip.current = txn
        kind = txn[0]
        if kind & 1:  # host or GC program
            bus = chip.bus
            ready = now + overhead
            until = bus.busy_until
            start = ready if ready > until else until
            tr = bus.tr
            bus.busy_until = start + tr
            fire = now + (
                overhead + ((start - ready) + tr) + chip.t_prog * txn[4]
            )
        elif kind == _ERASE:
            cursor = _Cursor(txn[5])
            chip.cursor = cursor
            chip.run_started = now
            fire = now + cursor.remaining()
        else:  # host or GC read
            bus = chip.bus
            cell_done = now + overhead + chip.t_r
            until = bus.busy_until
            start = cell_done if cell_done > until else until
            tr = bus.tr
            bus.busy_until = start + tr
            fire = now + (chip.a_read + ((start - cell_done) + tr) + decode)
        chip.fire = fire
        chip.fire_seq = seq
        seq += 1

    def resume_erase(chip):
        nonlocal seq
        txn = chip.susp_txn
        cursor = chip.susp_cursor
        chip.susp_txn = None
        chip.susp_cursor = None
        cursor.pending += soh
        chip.busy = True
        chip.current = txn
        chip.cursor = cursor
        chip.run_started = now
        chip.fire = now + cursor.remaining()
        chip.fire_seq = seq
        seq += 1

    def dispatch(chip):
        if chip.busy:
            return
        if chip.q0:
            execute(chip, chip.q0.popleft())
        elif chip.q1:
            execute(chip, chip.q1.popleft())
        elif chip.q2:
            execute(chip, chip.q2.popleft())
        elif chip.susp_txn is not None:
            # Resume the suspended erase before starting a new one
            # (same anti-starvation rule as ChipExecutor._dispatch).
            resume_erase(chip)
        elif chip.q3:
            execute(chip, chip.q3.popleft())

    def submit_txn(chip, txn):
        priority = txn[1]
        if priority == 0:
            chip.q0.append(txn)
            if suspension_on and chip.busy:
                current = chip.current
                if current is not None and current[0] == _ERASE:
                    cursor = chip.cursor
                    if cursor is not None and cursor.idx < len(cursor.durs):
                        request_suspension(chip, cursor)
        elif priority == 1:
            chip.q1.append(txn)
        elif priority == 2:
            chip.q2.append(txn)
        else:
            chip.q3.append(txn)
        if not chip.busy:
            dispatch(chip)

    def credit_request(req):
        nonlocal completed, last_completion
        req[1] += 1
        if req[1] < req[0]:
            return
        latency = now - req[2]
        if req[3]:
            read_record(latency)
        else:
            write_record(latency)
        completed += 1
        last_completion = now

    def finalize_suspension(chip):
        cursor = chip.cursor
        txn = chip.current
        chip.erase_busy += cursor.advance(now - chip.run_started)
        chip.susp_pending = False
        if cursor.idx >= len(cursor.durs):
            # The boundary was the end of the operation.
            chip.cursor = None
            chip.erases += 1
            chip.busy = False
            chip.current = None
            plane = txn[6][0]
            backlog = plane.backlog - 1
            plane.backlog = backlog if backlog > 0 else 0
            dispatch(chip)
            return
        cursor.count += 1
        chip.susp_txn = txn
        chip.susp_cursor = cursor
        chip.cursor = None
        chip.current = None
        chip.busy = False
        chip.suspensions += 1
        dispatch(chip)

    def enqueue_gc_job(plane, moves, durs):
        backlog = plane.backlog
        escalated = backlog >= gc_escal
        plane.backlog = backlog + 1
        chip = plane.chip
        gc = [plane, None, 2 * moves, False]
        erase_txn = (_ERASE, 1 if escalated else 3, chip, None, 1.0, durs, gc)
        gc[1] = erase_txn
        if moves == 0:
            gc[3] = True
            submit_txn(chip, erase_txn)
            return
        # GC moves never trigger suspension (priority > 0), so submits
        # inline to queue-append + dispatch-if-idle. Move txns are
        # value-identical and never compared by identity, so one tuple
        # per kind serves the whole job; and once the first dispatch
        # runs the chip stays busy until a heap event fires, so the
        # object path's remaining per-submit dispatches are no-ops.
        priority = 1 if escalated else 2
        queue = chip.q1 if escalated else chip.q2
        read_txn = (_GC_READ, priority, chip, None, 1.0, None, gc)
        prog_txn = (_GC_PROGRAM, priority, chip, None, 1.0, None, gc)
        queue.append(read_txn)
        if not chip.busy:
            dispatch(chip)
        queue.append(prog_txn)
        if not chip.busy:
            dispatch(chip)
        for _ in range(moves - 1):
            queue.append(read_txn)
            queue.append(prog_txn)

    def admit(request):
        nonlocal seq, n_host_reads, n_host_writes, n_unmapped
        first = (request.lba * SECTOR_BYTES) // page_size
        last = (request.end_lba * SECTOR_BYTES - 1) // page_size
        if request.is_read:
            req = [last - first + 1, 0, now, True]
            n_host_reads += last - first + 1
            # One txn tuple per chip serves every page of the request
            # (read txns are value-identical, never identity-compared).
            read_txns = {}
            for raw in range(first, last + 1):
                location = lmap_get(raw % logical_pages)
                if location is None:
                    # Never-written page: answered from the mapping
                    # table after the controller overhead.
                    n_unmapped += 1
                    push(heap, (now + overhead, seq, _CREDIT, req))
                    seq += 1
                else:
                    # submit_txn inlined for the user-read fast path.
                    chip = blk_chip[location[0]]
                    txn = read_txns.get(chip)
                    if txn is None:
                        txn = (_READ, 0, chip, req, 1.0, None, None)
                        read_txns[chip] = txn
                    chip.q0.append(txn)
                    if chip.busy:
                        if suspension_on:
                            current = chip.current
                            if current is not None and current[0] == _ERASE:
                                cursor = chip.cursor
                                if (
                                    cursor is not None
                                    and cursor.idx < len(cursor.durs)
                                ):
                                    request_suspension(chip, cursor)
                    else:
                        dispatch(chip)
        else:
            req = [last - first + 1, 0, now, False]
            n_host_writes += last - first + 1
            for raw in range(first, last + 1):
                # One host page write (same steps as PageLevelFtl.write).
                lpn = raw % logical_pages
                plane = planes[lpn % nplanes]
                block = plane.active_host
                if block is None or blk_wp[block] >= page_count:
                    block = plane.active_host = plane.take_free()
                page = blk_wp[block]
                blk_wp[block] = page + 1
                blk_valid[block] += 1
                blk_lpns[block][page] = lpn
                previous = lmap_get(lpn)
                lmap[lpn] = (block, page)
                if previous is not None:
                    blk_valid[previous[0]] -= 1
                    blk_lpns[previous[0]][previous[1]] = None
                scale = (
                    1.0 if program_scale is None
                    else program_scale(blk_obj[block])
                )
                # submit_txn inlined for the user-program fast path
                # (priority 1 never triggers suspension).
                chip = plane.chip
                chip.q1.append((_PROGRAM, 1, chip, req, scale, None, None))
                if not chip.busy:
                    dispatch(chip)
                # GC after the program is queued. Collecting touches only
                # FTL state and queueing only the chips, so collecting
                # and queueing each job in turn matches the object path's
                # collect-all-then-queue order.
                free = plane.free
                while len(free) < low_wm:
                    job = collect_one(plane)
                    if job is None:
                        break
                    enqueue_gc_job(plane, *job)
                    if len(free) >= high_wm:
                        break

    # --- event loop -----------------------------------------------------------
    # The next event is the minimum over the heap head and the chips'
    # in-flight completion slots, compared by the same (time, seq) key
    # the object simulator orders its heap by. Keeping completions out
    # of the heap removes a push+pop per transaction and makes
    # completion chaining implicit: the inlined execute below just
    # refills the chip's slot and the next iteration re-selects.
    #
    # Only heap events push onto the heap (a completion's follow-ups are
    # GC txns at priority > 0, which never request a suspension), so the
    # heap head is re-read only after a heap event; an empty heap reads
    # as an infinitely late head.
    head = heap[0] if heap else None
    head_t = head[0] if head is not None else _NEVER
    head_s = head[1] if head is not None else 0
    while True:
        best_t = head_t
        best_s = head_s
        chip = None
        for candidate in chips:
            fire = candidate.fire
            if fire is not None and (
                fire < best_t
                or (fire == best_t and candidate.fire_seq < best_s)
            ):
                best_t = fire
                best_s = candidate.fire_seq
                chip = candidate
        if chip is None:
            if head is None:
                break
            pop(heap)
            now = head_t
            kind = head[2]
            if kind == _ADMIT:
                admit(head[3])
            elif kind == _CREDIT:
                credit_request(head[3])
            else:
                finalize_suspension(head[3])
            if heap:
                head = heap[0]
                head_t = head[0]
                head_s = head[1]
            else:
                head = None
                head_t = _NEVER
                head_s = 0
            continue
        # Completion on ``chip``.
        now = best_t
        chip.fire = None
        txn = chip.current
        req = txn[3]
        if req is not None:
            # Host read/program page completion (common case).
            chip.busy = False
            chip.current = None
            req[1] += 1
            if req[1] >= req[0]:
                latency = now - req[2]
                if req[3]:
                    read_record(latency)
                else:
                    write_record(latency)
                completed += 1
                last_completion = now
        else:
            # GC read/program or erase: every non-host txn belongs to a
            # GC job (``enqueue_gc_job`` makes them all).
            chip.busy = False
            chip.current = None
            gc = txn[6]
            if txn[0] == _ERASE:
                cursor = chip.cursor
                if cursor is not None:
                    chip.erase_busy += cursor.advance(cursor.remaining())
                chip.cursor = None
                chip.erases += 1
                backlog = gc[0].backlog - 1
                gc[0].backlog = backlog if backlog > 0 else 0
            else:
                gc[2] -= 1
                if gc[2] == 0 and not gc[3]:
                    gc[3] = True
                    erase_txn = gc[1]
                    submit_txn(erase_txn[2], erase_txn)
        if chip.busy:
            continue
        if chip.q0:
            nxt = chip.q0.popleft()
        elif chip.q1:
            nxt = chip.q1.popleft()
        elif chip.q2:
            nxt = chip.q2.popleft()
        elif chip.susp_txn is not None:
            resume_erase(chip)
            continue
        elif chip.q3:
            nxt = chip.q3.popleft()
        else:
            continue
        # execute() inlined — this is the hottest dispatch site (one
        # per completion); same expression shapes.
        chip.busy = True
        chip.current = nxt
        nkind = nxt[0]
        if nkind & 1:  # host or GC program
            bus = chip.bus
            ready = now + overhead
            until = bus.busy_until
            start = ready if ready > until else until
            tr = bus.tr
            bus.busy_until = start + tr
            fire = now + (
                overhead + ((start - ready) + tr) + chip.t_prog * nxt[4]
            )
        elif nkind == _ERASE:
            cursor = _Cursor(nxt[5])
            chip.cursor = cursor
            chip.run_started = now
            fire = now + cursor.remaining()
        else:  # host or GC read
            bus = chip.bus
            cell_done = now + overhead + chip.t_r
            until = bus.busy_until
            start = cell_done if cell_done > until else until
            tr = bus.tr
            bus.busy_until = start + tr
            fire = now + (chip.a_read + ((start - cell_done) + tr) + decode)
        chip.fire = fire
        chip.fire_seq = seq
        seq += 1

    # Flush the bulk counters (and, with write_back, restore the page
    # states, mapping and allocators) before any report/exception, so
    # the drive's state is current just as it always is on the object
    # path.
    stats.host_reads += n_host_reads
    stats.host_writes += n_host_writes
    stats.unmapped_reads += n_unmapped
    lean.flush()
    if write_back:
        lean.restore()

    expected = len(requests)
    if completed != expected:
        raise SimulationError(
            f"replay incomplete: {completed}/{expected} requests finished"
        )
    report = PerfReport(
        workload=workload_name or trace.name,
        scheme=ssd.scheme.name,
        reads=reads,
        writes=writes,
        requests_completed=completed,
        makespan_us=max(last_completion, horizon),
        erases=sum(chip.erases for chip in chips),
        erase_busy_us=sum(chip.erase_busy for chip in chips),
        erase_suspensions=sum(chip.suspensions for chip in chips),
        gc_jobs=stats.gc_jobs,
        gc_page_moves=stats.gc_page_moves,
    )
    report.extra["waf"] = stats.write_amplification
    report.extra["mean_erase_latency_us"] = stats.mean_erase_latency_us
    observe_replay(report, stats)
    return report
