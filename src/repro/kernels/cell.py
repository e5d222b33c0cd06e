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

Both run in passes, where the object path interleaves everything:

1. **FTL pass** (:func:`_map_pages`, via :func:`_fill` and
   :func:`_ftl_pass`) — maps each host page, looks up each read and
   runs GC's victim choice and page moves on the lean state, and logs
   the trajectory (:class:`_Log`): each read's and write's block, the
   GC jobs each write ran as (plane index, moves, victim, write
   pointer), the counters and the P/E counts it leaves. Each erase
   adds the one P/E cycle every ``EraseScheme.erase`` accounts.
2. **Physics pass** (:func:`_physics_pass`) — walks the log in order:
   reads ``program_scale`` for each host write (only when the scheme
   overrides it) and erases each victim at its logged write pointer
   through the real ``ftl._erase_block``, then raises
   :class:`~repro.errors.SimulationError` if the real P/E counts differ
   from the log.
3. **Event loop** (the replay only) — times the logged transactions;
   ``admit`` only reads the log.

Why this order is exact: the FTL pass reads nothing an erase decides
(GC picks victims by valid and P/E counts, and every erase adds one P/E
cycle, which the physics pass checks); erase outcomes never depend on
simulated time; ``ftl.rng`` has no consumer but erases; and each
scheme's program scale reads only the block's P/E count, which the
physics pass reads between the same erases as the object path. So
every erase sees the object path's inputs, RNG draws and scheme state,
in the object path's order, and the event loop sees its durations.

How the event loop preserves identity:

* **Event order** — the heap holds ``(time, seq, kind, payload)``
  tuples and every schedule operation allocates the next ``seq`` in the
  exact control-flow position where the object path calls
  ``Simulator.after``/``at``, so same-time events fire in the same
  order. A chip has at most one completion in flight, so completions
  skip the heap entirely: they live in per-chip ``fire``/``fire_seq``
  slots the event loop merges with the heap head under the same
  ``(time, seq)`` order, and cancellation (erase suspension revoking a
  completion) just clears the slot. Two chips' completions at one
  instant compare as the object path's seqs would even where runs
  (below) took their seqs early: see rule (e).
* **Float arithmetic** — durations and bus reservations reproduce the
  object path's expression shapes (association order included), and
  erases are timed by the object path's own
  :class:`~repro.erase.suspension.SegmentCursor`, so every timestamp
  and every ``erase_busy_us`` increment is the same float.
* **Erase physics and RNG** — erases are not re-implemented at all:
  the physics pass syncs each victim block's write pointer and calls
  the real ``ftl._erase_block``, so scheme code, ``ftl.rng`` draws, wear
  accounting, SEF/feature-command bookkeeping, and per-erase
  ``FtlStats`` counters are the object path's own, in the same order.
  Erase telemetry is flushed at the replay boundary
  (:func:`~repro.telemetry.instruments.observe_replay`), as on the
  object path.
* **Mutable device state** — block wear, scheme memories, and erase
  statistics live on the real objects throughout; page states, the
  mapping table, the per-plane allocators, and the bulk ``FtlStats``
  counters are tracked lean. Both kernels flush the counters into
  ``FtlStats`` before they return (so every report and
  ``observe_replay`` read them current). Nothing writes the page
  states, mapping or allocators back: from the fill on, the lean state
  (:class:`_LeanFtl`) is the drive's FTL view, and
  :func:`~repro.harness.cells.run_workload_cell` drops its drive on
  return.

**Runs off the event loop.** Where each chip has a bus to itself, a
chip that starts a *run* — the next page moves of one GC job (GC read,
GC program, ...) — completes it in one tight loop (``run_ahead``), up
to the next *heap event* (an admission, a credit or a suspension
finalize: the only events that change a chip's queues from outside
it). The run's completion times step by the read and program
durations the loop's expressions give on a free bus; the chip, its
bus, its queue and the job's counter are then updated once, and the
loop sees only the run's last completion. Why this is exact:

* (a) Private bus only: chips that share a bus stay on the loop,
  decided per drive by ``chips_per_channel``. On a private bus a
  completion reads and writes only its chip; a completion pushes no
  heap entry, and the one transaction a completion submits, a GC job's
  erase, goes to the same chip. So between heap events a chip's
  completions follow from its own queues alone. Its previous transfer
  always ends at least ``_Chip.margin`` before it starts the next one,
  so a run's steps are the free-bus durations (a drive whose margin is
  within rounding of its times runs none).
* (b) A run holds only completions strictly before the heap head's
  time: no heap event can see the chip mid-run, and every heap entry a
  run's seqs are compared with was pushed before the run was built or
  after its internal completions, so against heap entries those seqs
  order as the object path's.
* (c) A completion that submits stays on the loop: a GC job's last
  move (it submits the erase). A run records nothing, and the job's
  counter takes its moves in one subtraction.
* (d) ``seq`` advances by the number of executes the run makes, taken
  as one block when the run is built.
* (e) Same-instant order. The object path orders two completions at
  one instant by seq, that is by execution order: executes at different
  instants by the instant, executes at one instant by the order of what
  executed them. A run takes its seqs ahead of other chips' executes in
  its span, so the seqs alone no longer give that order. Each in-flight
  completion therefore also keeps ``fire_at`` (when the object path
  executes it) and ``fire_trig`` (what executed it: the heap entry, the
  chip's previous completion, or the run transaction before it), and two
  chips' completions at one instant compare by ``fire_at``, then by
  their triggers, recursively (``_earlier``); only transactions executed
  by one heap event compare by seq. That is the object path's order
  whichever seq was taken first, lockstep included (one admission
  starting GC runs on two chips, whose completions then tie at every
  step). A completion's trigger is kept in full only where another
  chip completes at the same instant (in flight, already on the loop, or
  inside its run); otherwise only a heap event can share that instant,
  and seqs order the two.

**Point share.** The FTL passes depend on no scheme, so the cells of
one grid point (every scheme on one trace and drive) need them once.
:func:`~repro.harness.cells.run_workload_cell` passes both kernels its
point (``point``, a :class:`~repro.harness.cells.Point`): the point's
first fresh drive stores the fill's log and end state as
``point.fill`` and the replay's log as ``point.replay``, and a later
drive of the point copies the fill's end state and replays the log, so
only its physics pass and event loop run. Without ``point`` each
kernel runs its own passes and shares nothing.

The kernels replicate the page, mapping and allocator bookkeeping of
the two FTL classes :func:`~repro.ssd.builder.build_ssd` builds
(``PageLevelFtl`` and ``AeroFtl``), so they drive every grid cell.
"""

from __future__ import annotations

from array import array
from collections import deque
from bisect import bisect_left
from heapq import heappop, heappush
from itertools import accumulate, cycle, islice
from typing import List, Optional, Tuple

from repro.erase.scheme import EraseScheme
from repro.erase.suspension import SegmentCursor
from repro.errors import MappingError, OutOfSpaceError, SimulationError
from repro.ftl.allocator import WriteStream
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
# GC tracker list [plane, erase_txn, moves_remaining, erase_submitted,
# read_txn, program_txn, moves_queued]. A job's page moves (a GC read
# then a GC program, per page) wait in their queue as one ``_MOVES``
# entry, taken one transaction at a time (``_next_move``). Programs are
# the odd kinds, so one bit test picks them out.
_READ, _PROGRAM, _GC_READ, _GC_PROGRAM, _ERASE, _MOVES = 0, 1, 2, 3, 4, 6

#: Heap-head time of an empty heap: later than any event.
_NEVER = float("inf")

#: A run steps by constant durations only while its chip's bus margin
#: exceeds this multiple of its last completion time, far above the
#: rounding of the loop's bus arithmetic (see ``_Chip.margin``).
_ULPS = 2.0 ** -48


class _Bus:
    __slots__ = ("busy_until", "tr")

    def __init__(self, tr: float):
        self.busy_until = 0.0
        self.tr = tr


class _Chip:
    __slots__ = (
        "q0", "q1", "q2", "q3", "busy", "current", "cursor", "run_started",
        "susp_txn", "susp_cursor", "susp_pending", "fire", "fire_at",
        "fire_seq", "fire_trig", "run", "run_hi", "others",
        "suspensions", "erases", "erase_busy",
        "bus", "t_r", "t_prog", "a_read", "d_read", "d_prog", "margin",
    )

    def __init__(
        self, bus: _Bus, t_r: float, t_prog: float, overhead: float,
        decode: float,
    ):
        self.q0 = deque()
        self.q1 = deque()
        self.q2 = deque()
        self.q3 = deque()
        self.busy = False
        self.current = None
        self.cursor: Optional[SegmentCursor] = None
        self.run_started = 0.0
        self.susp_txn = None
        self.susp_cursor: Optional[SegmentCursor] = None
        self.susp_pending = False
        self.fire: Optional[float] = None  # in-flight completion time
        self.fire_at = 0.0  # when the object path executes it
        self.fire_seq = 0
        self.fire_trig = None  # what executed it (``trigger``)
        # The chip's last run (see ``run_ahead``): ``(t0, s1, trig,
        # times)``, and its last internal completion time.
        self.run: Optional[tuple] = None
        self.run_hi = -_NEVER
        self.others: Tuple["_Chip", ...] = ()  # other chips, if runs apply
        self.suspensions = 0
        self.erases = 0
        self.erase_busy = 0.0
        self.bus = bus
        self.t_r = t_r
        self.t_prog = t_prog
        self.a_read = overhead + t_r
        # A read's and a GC program's duration when the bus is free at
        # its start, by the loop's expressions. On a bus of its own the
        # chip's previous transfer ends at least ``margin`` before it
        # next starts one, so a run steps by these constants.
        self.d_read = (self.a_read + bus.tr) + decode
        self.d_prog = (overhead + bus.tr) + t_prog
        self.margin = overhead + min(decode, t_prog)


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
    apply host pages to these lists in an FTL pass (:func:`_map_pages`,
    which runs GC through ``collect_one`` and gathers the bulk GC
    counters through ``take_counts``). The lists are the drive's FTL
    view from then on: nothing writes them back to its objects.
    """

    __slots__ = (
        "planes", "lmap", "blk_obj", "blk_wp", "blk_valid", "blk_lpns",
        "blk_pec", "page_count", "low_wm", "program_scale",
        "collect_one", "take_counts",
    )


def _add_gc_counts(ftl, moves, wl_moves, jobs, interventions) -> None:
    """Add bulk GC counters to the FTL's stats and wear leveler."""
    stats = ftl.stats
    stats.gc_page_moves += moves
    stats.wear_leveling_moves += wl_moves
    stats.gc_jobs += jobs
    ftl.leveler.interventions += interventions


def _lean_ftl(ftl) -> _LeanFtl:
    spec = ftl.spec
    scheme = ftl.scheme
    page_count = spec.geometry.pages_per_block
    low_wm = spec.gc.low_watermark
    wl_gap = ftl.leveler.pec_gap_threshold
    wl_cold = wl_gap // 4

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

    # Bulk GC counters accumulate locally until ``take_counts`` (nothing
    # reads them mid-pass; the physics pass adds them to the stats).
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
        # No erase physics here: the physics pass erases the victim at
        # this write pointer later. Every ``EraseScheme.erase`` accounts
        # one P/E cycle, which is all the FTL's choices read of it (the
        # physics pass checks the count).
        old_pec = blk_pec[victim]
        new_pec = blk_pec[victim] = old_pec + 1
        if new_pec > plane.pec_max:
            plane.pec_max = new_pec
        if old_pec == plane.pec_min:
            plane.pec_min = min(blk_pec[b] for b in blocks)
        blk_wp[victim] = 0
        blk_valid[victim] = 0
        plane.free.append(victim)
        free_set.add(victim)
        n_gc_jobs += 1
        return moves, victim, wp

    def take_counts():
        """The GC counters gathered since the last call (then reset)."""
        nonlocal n_gc_moves, n_wl_moves, n_gc_jobs, n_interventions
        counts = (n_gc_moves, n_wl_moves, n_gc_jobs, n_interventions)
        n_gc_moves = n_wl_moves = n_gc_jobs = n_interventions = 0
        return counts

    lean = _LeanFtl()
    lean.planes = planes
    lean.lmap = lmap
    lean.blk_obj = blk_obj
    lean.blk_wp = blk_wp
    lean.blk_valid = blk_valid
    lean.blk_lpns = blk_lpns
    lean.blk_pec = blk_pec
    lean.page_count = page_count
    lean.low_wm = low_wm
    # None for the default 1.0 scale (every scheme but DPES).
    lean.program_scale = (
        None
        if type(scheme).program_scale is EraseScheme.program_scale
        else scheme.program_scale
    )
    lean.collect_one = collect_one
    lean.take_counts = take_counts
    return lean


def _next_move(queue, entry) -> tuple:
    """Take the next page move of the GC job that ``entry``, just taken
    from the front of ``queue``, stands for."""
    gc = entry[6]
    queued = gc[6]
    gc[6] = queued - 1
    if queued > 1:
        queue.appendleft(entry)
    return gc[4] if queued & 1 == 0 else gc[5]  # a read first


def _key(trig) -> tuple:
    """``(at, seq, trig)`` of the execute ``trig`` names (a trigger:
    see ``run_trace_kernel``); ``at`` is None for a heap entry or a
    bare seq."""
    if type(trig) is int:
        return None, trig, None
    if len(trig) == 4:  # a heap entry
        return None, trig[1], None
    if len(trig) == 3:  # a completion's full key
        return trig
    run, k = trig  # T_k of a run
    t0, s1, trig1, times = run
    if k == 1:
        return t0, s1, trig1
    return times[k - 2], s1 + k - 1, (run, k - 1)


def _earlier(x: "_Chip", y: "_Chip") -> bool:
    """Whether chip ``x``'s in-flight completion precedes chip ``y``'s
    in the object path's order, when both fall at the same instant and
    were executed at the same instant (rule (e) in the module
    docstring). Two transactions the loop executed took their seqs in
    the object path's order; otherwise the one whose trigger was
    processed first comes first, recursively."""
    sx, sy = x.fire_seq, y.fire_seq
    tx, ty = x.fire_trig, y.fire_trig
    while tx is not ty:
        in_x = type(tx) is tuple and len(tx) == 2
        in_y = type(ty) is tuple and len(ty) == 2
        if not (in_x or in_y):
            break  # neither was executed inside a run
        if in_x and in_y:
            # Both inside runs: step back while their times agree.
            (rx, i), (ry, j) = tx, ty
            times_x, times_y = rx[3], ry[3]
            while i > 1 and j > 1 and times_x[i - 2] == times_y[j - 2]:
                i -= 1
                j -= 1
            tx, ty = (rx, i), (ry, j)
        ax, sx, tx = _key(tx)
        ay, sy, ty = _key(ty)
        if ax is None or ay is None:
            # A heap event, or a completion no other chip's completion
            # shares an instant with: seqs order them.
            break
        if ax != ay:
            return ax < ay
    return sx < sy


class _State:
    """The lean FTL state the fill leaves: what a later drive of the
    point copies instead of running the fill itself."""

    __slots__ = ("wp", "valid", "lpns", "pec", "lmap", "planes")

    def __init__(self, lean: _LeanFtl):
        self.wp = tuple(lean.blk_wp)
        self.valid = tuple(lean.blk_valid)
        self.lpns = tuple(map(tuple, lean.blk_lpns))
        self.pec = tuple(lean.blk_pec)
        self.lmap = dict(lean.lmap)
        self.planes = tuple(
            (
                tuple(plane.free), plane.active_host, plane.active_gc,
                plane.pec_min, plane.pec_max,
            )
            for plane in lean.planes
        )

    def load(self, lean: _LeanFtl) -> None:
        """Copy the state into a fresh drive's ``lean`` snapshot."""
        lean.blk_wp[:] = self.wp
        lean.blk_valid[:] = self.valid
        lean.blk_lpns[:] = map(list, self.lpns)
        lean.blk_pec[:] = self.pec
        lean.lmap.update(self.lmap)
        for plane, (free, host, gc_active, pec_min, pec_max) in zip(
            lean.planes, self.planes
        ):
            plane.free = deque(free)
            plane.free_set = set(free)
            plane.active_host = host
            plane.active_gc = gc_active
            plane.pec_min = pec_min
            plane.pec_max = pec_max


class _Log:
    """One FTL pass's trajectory, in the order the pass made it.

    ``reads`` and ``writes`` hold each host read and write page's block
    (-1 for a read of a never-written page); GC job ``j`` ran after host
    write ``gc_at[j]`` on plane ``gc_plane[j]`` (an index, so any drive
    of the point can replay it), moved ``gc_moves[j]`` pages and erased
    block ``victims[j]`` at write pointer ``wps[j]``. ``pec`` holds the
    P/E counts the pass leaves, ``counts`` the bulk GC counters it adds
    and ``unmapped`` its reads of never-written pages. A point's fill
    log also holds ``state``, the lean state the fill leaves.
    """

    __slots__ = (
        "reads", "writes", "gc_at", "gc_plane", "gc_moves", "victims",
        "wps", "pec", "counts", "unmapped", "state",
    )


def _map_pages(lean: _LeanFtl, pages: List[int]) -> _Log:
    """The FTL pass: apply host pages to ``lean`` in order, as the FTL
    would, and log the trajectory. A page ``lpn`` writes that LPN and
    then collects garbage while the plane is below its low watermark;
    ``~lpn`` reads it."""
    planes = lean.planes
    nplanes = len(planes)
    lmap = lean.lmap
    lmap_get = lmap.get
    blk_wp = lean.blk_wp
    blk_valid = lean.blk_valid
    blk_lpns = lean.blk_lpns
    page_count = lean.page_count
    low_wm = lean.low_wm
    collect_one = lean.collect_one
    log = _Log()
    reads = log.reads = array("i")
    writes = log.writes = array("i")
    gc_at = log.gc_at = array("i")
    gc_plane = log.gc_plane = array("i")
    gc_moves = log.gc_moves = array("i")
    victims = log.victims = array("i")
    wps = log.wps = array("i")
    for lpn in pages:
        if lpn < 0:
            location = lmap_get(~lpn)
            reads.append(-1 if location is None else location[0])
            continue
        # One host page write (same steps as ``PageLevelFtl.write``).
        index = lpn % nplanes
        plane = planes[index]
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
        writes.append(block)
        free = plane.free
        while len(free) < low_wm:
            job = collect_one(plane)
            if job is None:
                break
            gc_at.append(len(writes) - 1)
            gc_plane.append(index)
            gc_moves.append(job[0])
            victims.append(job[1])
            wps.append(job[2])
    log.pec = tuple(lean.blk_pec)
    log.counts = lean.take_counts()
    log.unmapped = reads.count(-1)
    log.state = None
    return log


def _fill(
    lean: _LeanFtl, seed: int, footprint_pages: int, overwrites: int
) -> _Log:
    """The preconditioning FTL pass: the sequential fill, then the
    random overwrites (drawn from their own stream)."""
    lpns = list(range(footprint_pages))
    if overwrites:
        rng = derive_rng(seed, "precondition")
        lpns += rng.integers(0, footprint_pages, size=overwrites).tolist()
    return _map_pages(lean, lpns)


def _ftl_pass(
    lean: _LeanFtl, requests, page_size: int, logical_pages: int
) -> _Log:
    """The replay's FTL pass: every request's pages in request order,
    which is the order the event loop admits them in."""
    pages: List[int] = []
    for request in requests:
        first = (request.lba * SECTOR_BYTES) // page_size
        last = (request.end_lba * SECTOR_BYTES - 1) // page_size
        lpns = [raw % logical_pages for raw in range(first, last + 1)]
        pages += [~lpn for lpn in lpns] if request.is_read else lpns
    return _map_pages(lean, pages)


def _physics_pass(lean: _LeanFtl, ftl, log: _Log, timed: bool = True):
    """Erase physics for ``log`` on this drive.

    Erases each logged victim through the real ``ftl._erase_block`` at
    its logged write pointer, in log order, so scheme code, ``ftl.rng``
    draws, wear, SEF/feature accounting and per-erase stats are the
    object path's own, in its order. For a ``timed`` log (the replay's)
    it also collects what the event loop times: each GC job's erase
    segment durations and, for a scheme that overrides
    ``program_scale``, each host write's scale, read just before the
    erases its GC ran (the scale reads the block's P/E count, which
    earlier erases advanced). Raises :class:`SimulationError` if the
    erases leave other P/E counts than the log, then adds the log's
    bulk GC counters to the stats.

    Returns ``(scales, durs)``: the per-write program scales (None for
    the default 1.0) and the per-job durations (empty unless ``timed``).
    """
    blk_obj = lean.blk_obj
    erase_block = ftl._erase_block
    program_scale = lean.program_scale if timed else None
    scales = None if program_scale is None else []
    writes = log.writes
    gc_at = log.gc_at
    wps = log.wps
    durs = []
    for job, victim in enumerate(log.victims):
        if scales is not None:
            while len(scales) <= gc_at[job]:
                scales.append(program_scale(blk_obj[writes[len(scales)]]))
        # finish_erase only needs the write pointer synced (it resets
        # pages up to it).
        block = blk_obj[victim]
        block.write_pointer = wps[job]
        result = erase_block(block)
        if timed:
            durs.append([segment.duration_us for segment in result.segments])
    if scales is not None:
        scales += [program_scale(blk_obj[b]) for b in writes[len(scales):]]
    if tuple(block.wear.pec for block in blk_obj) != log.pec:
        raise SimulationError(
            "FTL log: this drive's erases left other P/E counts than "
            "the logged pass"
        )
    _add_gc_counts(ftl, *log.counts)
    return scales, durs


def precondition_kernel(
    ssd,
    footprint_pages: Optional[int] = None,
    overwrite_fraction: float = 0.6,
    point=None,
) -> _LeanFtl:
    """Lean twin of :meth:`Ssd.precondition` (identical end state, held
    lean).

    Same write sequence, same GC decisions, same real erases (and
    therefore the same ``ftl.rng``/wear stream) as the object path —
    only the per-page bookkeeping is lean: an FTL pass (:func:`_fill`)
    places the pages and picks the victims, then a physics pass erases
    them on this drive.

    Returns the lean FTL state: the drive's FTL view after the fill,
    which :func:`run_trace_kernel` continues from (via ``lean``). The
    bulk ``FtlStats`` counters are flushed; the drive's page states,
    mapping and allocators are not written back.

    **Layout share.** Where each page lands, which blocks GC picks and
    in what order do not depend on the erase scheme: the fill's writes,
    the greedy and wear-leveling victim choices and every erase's +1
    P/E cycle (``EraseScheme.erase`` accounts one cycle per erase) are
    the same for every scheme, and only the erases' physics (latency,
    pulses, wear age, ``ftl.rng`` draws) differs. So on a fresh drive of
    ``point`` the fill's log and the lean state it leaves are the
    point's: the first such drive stores them as ``point.fill`` and a
    later one copies the state instead of running the pass. The physics
    pass is the same either way. Without ``point`` the fill runs and is
    shared with nothing, as in :meth:`Ssd.precondition`.
    """
    ftl = ssd.ftl
    spec = ssd.spec
    if footprint_pages is None:
        footprint_pages = spec.logical_pages
    if footprint_pages > spec.logical_pages:
        raise MappingError("footprint exceeds the logical space")
    lean = _lean_ftl(ftl)
    overwrites = int(footprint_pages * overwrite_fraction)
    fill = None if point is None else point.fill
    if fill is None:
        fill = _fill(lean, spec.seed, footprint_pages, overwrites)
        if point is not None:
            fill.state = _State(lean)
            point.fill = fill
    else:
        fill.state.load(lean)
    _physics_pass(lean, ftl, fill, timed=False)
    ftl.stats.host_writes += footprint_pages + overwrites
    return lean


def run_trace_kernel(
    ssd,
    trace,
    lean: _LeanFtl,
    workload_name: Optional[str] = None,
    point=None,
) -> PerfReport:
    """Replay ``trace`` with the lean cell kernel (report-identical).

    Mirrors :meth:`repro.ssd.ssd.Ssd.run_trace` exactly; see the module
    docstring for how identity is maintained. ``lean`` is the
    drive's FTL view: the state :func:`precondition_kernel` returned
    for it, or :func:`_lean_ftl` of a drive that
    :meth:`Ssd.precondition` filled. It is required, since a kernel
    fill writes nothing back to the drive's objects and a snapshot of
    them would replay a stale drive. The bulk ``FtlStats`` counters are
    flushed before the report; the drive's page states, mapping and
    allocators are not written back. After a replay that ran its own
    FTL pass, ``lean`` is the drive's FTL view after the replay.

    **Replay-log share.** The replay runs in three passes: an FTL pass
    (:func:`_ftl_pass`) maps every request's pages and runs GC, a
    physics pass (:func:`_physics_pass`) erases the logged victims on
    this drive, and the event loop times the logged transactions. The
    FTL pass reads nothing the scheme decides, so a fresh drive of
    ``point``, preconditioned with that point and replaying its trace,
    replays ``point.replay`` if a drive of the point has logged it, and
    otherwise runs the pass and stores its log there. Without ``point``
    the replay runs its own pass and shares nothing, as
    :meth:`Ssd.run_trace` does.
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

    requests = trace.requests
    log = None if point is None else point.replay
    if log is None:
        log = _ftl_pass(lean, requests, page_size, logical_pages)
        if point is not None:
            point.replay = log
    scales, durs = _physics_pass(lean, ftl, log)
    stats.host_reads += len(log.reads)
    stats.host_writes += len(log.writes)
    stats.unmapped_reads += log.unmapped

    planes = lean.planes
    blk_obj = lean.blk_obj
    read_blocks = log.reads
    write_blocks = log.writes
    gc_at = log.gc_at
    gc_plane = log.gc_plane
    gc_moves = log.gc_moves
    njobs = len(gc_at)
    push = heappush
    pop = heappop

    # --- timed front end ------------------------------------------------------
    buses = [_Bus(spec.page_transfer_us) for _ in range(geometry.channels)]
    chips: List[_Chip] = []
    chip_map = {}
    for chip in ssd.chips:
        lean_chip = _Chip(
            buses[chip.channel], chip.timing.t_r_us, chip.timing.t_prog_us,
            overhead, decode,
        )
        chips.append(lean_chip)
        chip_map[(chip.channel, chip.chip)] = lean_chip
    # Runs apply only where each chip has a bus to itself (rule (a)).
    runs = geometry.chips_per_channel == 1
    if runs:
        for lean_chip in chips:
            lean_chip.others = tuple(c for c in chips if c is not lean_chip)
    blk_chip = [None] * len(blk_obj)
    for plane in planes:
        address = plane.alloc.address
        plane.chip = chip_map[(address.channel, address.chip)]
        for b in plane.blocks:
            blk_chip[b] = plane.chip

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
    # Log cursors: the next host read and write page, the next GC job
    # and the host write that ran it (-1 once every job is queued).
    next_read = 0
    next_write = 0
    next_job = 0
    job_at = gc_at[0] if njobs else -1

    # What a transaction executed now hangs off (its trigger, kept as
    # ``_Chip.fire_trig`` for rule (e)): the heap entry being processed;
    # the completion's full key ``(at, seq, trig)`` where another chip
    # completes at the same instant, else its bare seq; or ``(run, k)``
    # for a run's transaction T_k.
    trigger = None

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
            cursor = SegmentCursor(txn[5])
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
        chip.fire_at = now
        chip.fire_seq = seq
        chip.fire_trig = trigger
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
        chip.fire_at = now
        chip.fire_seq = seq
        chip.fire_trig = trigger
        seq += 1

    def run_ahead(chip, txn, head_t):
        """``chip`` just executed ``txn``, a GC move that is not its
        job's last: complete the run it starts (see the module
        docstring)."""
        nonlocal seq
        t = chip.fire
        if t >= head_t:
            return
        kind = txn[0]
        gc = txn[6]
        left = gc[2]  # the job's moves not yet completed
        # T_k completes off the loop while it does not submit (k <
        # left) and precedes the heap head (rules (b), (c)); T_{k+1}
        # executes at its completion.
        times = list(accumulate(islice(cycle(
            (chip.d_prog, chip.d_read) if kind == _GC_READ
            else (chip.d_read, chip.d_prog)
        ), left - 1), initial=t))
        n = bisect_left(times, head_t) + 1
        if n < left:
            del times[n:]
        else:
            n = left
        if n < 2 or chip.margin <= times[-1] * _ULPS:
            return
        nxt = txn if n & 1 else gc[5] if kind == _GC_READ else gc[4]
        gc[2] -= n - 1
        gc[6] -= n - 1
        if not gc[6]:
            (chip.q1 if txn[1] == 1 else chip.q2).popleft()
        s1 = chip.fire_seq
        run = chip.run = (now, s1, chip.fire_trig, times)
        chip.run_hi = times[-2]
        chip.current = nxt
        chip.fire = times[-1]
        chip.fire_at = times[-2]
        chip.fire_seq = s1 + n - 1
        chip.fire_trig = (run, n - 1)
        seq += n - 1
        bus = chip.bus
        start = times[-2] + overhead
        if not nxt[0] & 1:
            start = start + chip.t_r
        bus.busy_until = start + bus.tr

    def dispatch(chip):
        # Every caller tests or clears ``chip.busy`` first.
        if chip.q0:
            execute(chip, chip.q0.popleft())
        elif chip.q1:
            txn = chip.q1.popleft()
            if txn[0] == _MOVES:
                txn = _next_move(chip.q1, txn)
            execute(chip, txn)
        elif chip.q2:
            execute(chip, _next_move(chip.q2, chip.q2.popleft()))
        elif chip.susp_txn is not None:
            # Resume the suspended erase before starting a new one
            # (same anti-starvation rule as ChipExecutor._dispatch).
            resume_erase(chip)
        elif chip.q3:
            execute(chip, chip.q3.popleft())

    def submit_erase(chip, txn):
        # A GC job's erase: priority 1 when escalated, else 3 (host
        # txns are submitted inline in ``admit``).
        (chip.q1 if txn[1] == 1 else chip.q3).append(txn)
        if not chip.busy:
            dispatch(chip)

    def credit_request(req):
        # Only reads of never-written pages are credited (``admit``).
        nonlocal completed, last_completion
        req[1] += 1
        if req[1] < req[0]:
            return
        read_record(now - req[2])
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
        gc = [plane, None, 2 * moves, False, None, None, 2 * moves]
        erase_txn = (_ERASE, 1 if escalated else 3, chip, None, 1.0, durs, gc)
        gc[1] = erase_txn
        if moves == 0:
            gc[3] = True
            submit_erase(chip, erase_txn)
            return
        # GC moves never trigger suspension (priority > 0), so their
        # submits reduce to a queue append, with no dispatch: the job's
        # plane is that of the write that ran it, whose program
        # ``admit`` just queued on this chip, so the chip is busy. Move
        # txns are value-identical and never compared by identity, so
        # one tuple per kind serves the whole job.
        priority = 1 if escalated else 2
        gc[4] = (_GC_READ, priority, chip, None, 1.0, None, gc)
        gc[5] = (_GC_PROGRAM, priority, chip, None, 1.0, None, gc)
        (chip.q1 if escalated else chip.q2).append(
            (_MOVES, priority, chip, None, 1.0, None, gc)
        )

    def admit(request):
        nonlocal seq, next_read, next_write, next_job, job_at
        first = (request.lba * SECTOR_BYTES) // page_size
        last = (request.end_lba * SECTOR_BYTES - 1) // page_size
        if request.is_read:
            req = [last - first + 1, 0, now, True]
            start = next_read
            next_read = start + (last - first + 1)
            # One txn tuple per chip serves every page of the request
            # (read txns are value-identical, never identity-compared).
            read_txns = {}
            for block in read_blocks[start:next_read]:
                if block < 0:
                    # Never-written page: answered from the mapping
                    # table after the controller overhead.
                    push(heap, (now + overhead, seq, _CREDIT, req))
                    seq += 1
                else:
                    # A host read: queue at priority 0, suspending an
                    # erase in flight (the object path's submit).
                    chip = blk_chip[block]
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
            start = next_write
            next_write = start + (last - first + 1)
            for write in range(start, next_write):
                # A host program: queue at priority 1 (which never
                # triggers suspension).
                chip = blk_chip[write_blocks[write]]
                chip.q1.append((
                    _PROGRAM, 1, chip, req,
                    1.0 if scales is None else scales[write], None, None,
                ))
                if not chip.busy:
                    dispatch(chip)
                # The GC jobs this write ran, queued after its program
                # in collection order (the object path collects them
                # all, then queues each in turn).
                while write == job_at:
                    enqueue_gc_job(
                        planes[gc_plane[next_job]], gc_moves[next_job],
                        durs[next_job],
                    )
                    next_job += 1
                    job_at = gc_at[next_job] if next_job < njobs else -1

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
    last_done = -_NEVER  # the instant of the last completion on the loop
    while True:
        best_t = head_t
        best_s = head_s
        chip = None
        for candidate in chips:
            fire = candidate.fire
            if fire is not None and (
                fire < best_t
                or fire == best_t and (
                    candidate.fire_seq < best_s if chip is None
                    else candidate.fire_at < chip.fire_at
                    or candidate.fire_at == chip.fire_at
                    and _earlier(candidate, chip)
                )
            ):
                best_t = fire
                best_s = candidate.fire_seq
                chip = candidate
        if chip is None:
            if head is None:
                break
            pop(heap)
            now = head_t
            trigger = head
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
        # Completion on ``chip``. What it executes next hangs off it:
        # by its full key where another chip completes at this instant
        # too, else by its seq alone (see ``_earlier``).
        now = best_t
        chip.fire = None
        trigger = chip.fire_seq
        if now == last_done and runs:
            # Another chip's completion at this instant came first.
            trigger = (chip.fire_at, trigger, chip.fire_trig)
        else:
            for other in chip.others:
                if other.fire == now:
                    trigger = (chip.fire_at, trigger, chip.fire_trig)
                    break
                if now <= other.run_hi:
                    run = other.run
                    times = run[3]
                    if now > run[0] and times[bisect_left(times, now)] == now:
                        trigger = (chip.fire_at, trigger, chip.fire_trig)
                        break
        last_done = now
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
                    submit_erase(erase_txn[2], erase_txn)
        if chip.busy:
            continue
        if chip.q0:
            nxt = chip.q0.popleft()
        elif chip.q1:
            nxt = chip.q1.popleft()
            if nxt[0] == _MOVES:
                nxt = _next_move(chip.q1, nxt)
        elif chip.q2:
            nxt = _next_move(chip.q2, chip.q2.popleft())
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
            cursor = SegmentCursor(nxt[5])
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
        chip.fire_at = now
        chip.fire_seq = seq
        chip.fire_trig = trigger
        seq += 1
        if runs and (nkind == _GC_READ or nkind == _GC_PROGRAM) and (
            nxt[6][2] > 1
        ):
            run_ahead(chip, nxt, head_t)

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
