"""Page-level FTL: translation, allocation, garbage collection.

Design note: the FTL applies *state* changes (mapping updates, page
allocation, erase physics) instantly when an operation is planned; the
timed SSD simulator replays the resulting NAND operations (reads,
programs, erase segments) on the event clock. This split keeps state
transitions trivially consistent while preserving exactly the timing
interactions the paper studies (erase operations blocking reads on the
same chip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import SsdSpec
from repro.erase.scheme import EraseOperationResult, EraseScheme
from repro.errors import MappingError
from repro.ftl.allocator import PlaneAllocator, WriteStream
from repro.ftl.gc import GcJob, GreedyVictimSelector, PageMove
from repro.ftl.mapping import PageMappingTable
from repro.ftl.stats import FtlStats
from repro.ftl.wear_leveling import WearLeveler
from repro.nand.block import Block
from repro.nand.chip import NandChip
from repro.nand.geometry import BlockAddress, PageAddress
from repro.rng import derive_rng


@dataclass
class WritePlan:
    """Everything the timed simulator needs to replay one page write."""

    lpn: int
    destination: PageAddress
    #: tPROG multiplier for this page (DPES penalty).
    program_scale: float = 1.0
    #: GC jobs triggered by this write (state already applied).
    gc_jobs: List[GcJob] = field(default_factory=list)


class PageLevelFtl:
    """Conventional page-level FTL (the paper's baseline firmware)."""

    def __init__(
        self,
        spec: SsdSpec,
        chips: Sequence[NandChip],
        scheme: EraseScheme,
        rng: Optional[np.random.Generator] = None,
    ):
        self.spec = spec
        self.scheme = scheme
        self.rng = rng if rng is not None else derive_rng(spec.seed, "ftl")
        self.mapping = PageMappingTable(spec.logical_pages)
        self.stats = FtlStats()
        self.selector = GreedyVictimSelector()
        self.leveler = WearLeveler()
        self._chips: Dict[tuple, NandChip] = {
            (chip.channel, chip.chip): chip for chip in chips
        }
        # Channel-major plane order: consecutive LPNs stripe across
        # channels first, maximizing bus/chip parallelism.
        geometry = spec.geometry
        self.planes: List[PlaneAllocator] = []
        for plane_idx in range(geometry.planes_per_chip):
            for chip_idx in range(geometry.chips_per_channel):
                for channel in range(geometry.channels):
                    chip = self._chips[(channel, chip_idx)]
                    plane = chip.plane(plane_idx)
                    self.planes.append(
                        PlaneAllocator(plane.address, list(plane.blocks))
                    )

    # --- lookups ---------------------------------------------------------------

    def chip_at(self, channel: int, chip: int) -> NandChip:
        return self._chips[(channel, chip)]

    def block_at(self, address: BlockAddress) -> Block:
        return self.chip_at(address.channel, address.chip).block(address)

    def plane_for_lpn(self, lpn: int) -> PlaneAllocator:
        """Static page-granularity striping across planes."""
        return self.planes[lpn % len(self.planes)]

    # --- host operations -----------------------------------------------------------

    def read(self, lpn: int) -> Optional[PageAddress]:
        """Translate a host read; None for never-written pages."""
        self.stats.host_reads += 1
        address = self.mapping.lookup(lpn)
        if address is None:
            self.stats.unmapped_reads += 1
        return address

    def write(self, lpn: int) -> WritePlan:
        """Plan a host page write (state applied immediately)."""
        allocator = self.plane_for_lpn(lpn)
        destination = allocator.allocate_page(WriteStream.HOST, lpn)
        previous = self.mapping.update(lpn, destination)
        if previous is not None:
            self._invalidate(previous)
        self.stats.host_writes += 1
        block = self.block_at(destination.block_address)
        plan = WritePlan(
            lpn=lpn,
            destination=destination,
            program_scale=self.scheme.program_scale(block),
        )
        plan.gc_jobs = self._maybe_collect(allocator)
        return plan

    def _invalidate(self, address: PageAddress) -> None:
        """Mark the physical copy at ``address`` stale."""
        self.block_at(address.block_address).invalidate(address.page)

    # --- GC ------------------------------------------------------------------------

    def _maybe_collect(self, allocator: PlaneAllocator) -> List[GcJob]:
        """Run greedy GC until the plane is back at the low watermark."""
        jobs: List[GcJob] = []
        low_watermark = self.spec.gc.low_watermark
        while allocator.free_blocks < low_watermark:
            job = self._collect_one(allocator)
            if job is None:
                break
            jobs.append(job)
        return jobs

    def _collect_one(self, allocator: PlaneAllocator) -> Optional[GcJob]:
        """Collect one victim block; returns the planned job."""
        victim = self.leveler.pick_cold_victim(allocator)
        if victim is not None:
            self.stats.wear_leveling_moves += victim.valid_count
        else:
            victim = self.selector.select(allocator)
        if victim is None:
            return None
        job = GcJob(plane=allocator.address, victim=victim.address.page(0))
        for page_index, lpn in list(victim.iter_valid_pages()):
            source = victim.address.page(page_index)
            if lpn is None or not self.mapping.points_at(lpn, source):
                victim.invalidate(page_index)
                continue
            destination = allocator.allocate_page(WriteStream.GC, lpn)
            self.mapping.update(lpn, destination)
            victim.invalidate(page_index)
            job.moves.append(
                PageMove(lpn=lpn, source=source, destination=destination)
            )
            self.stats.gc_page_moves += 1
        job.erase_result = self._erase_block(victim)
        allocator.release(victim)
        self.stats.gc_jobs += 1
        return job

    def _erase_block(self, block: Block) -> EraseOperationResult:
        """Erase one block through the configured scheme (overridable)."""
        result = self.scheme.erase(block, self.rng)
        self.stats.record_erase(result.scheme, result.latency_us, result.total_pulses)
        return result

    # --- preconditioning ---------------------------------------------------------------

    def precondition(
        self,
        footprint_pages: int,
        overwrite_fraction: float = 0.6,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Drive the drive to steady state before a timed run.

        Sequentially writes the whole footprint, then randomly
        overwrites a fraction of it so blocks carry the mixed
        valid/invalid populations a steady-state drive has (GC then has
        real work during the measured window). All effects are instant.
        """
        if footprint_pages > self.spec.logical_pages:
            raise MappingError("footprint exceeds the logical space")
        rng = rng if rng is not None else derive_rng(self.spec.seed, "precondition")
        for lpn in range(footprint_pages):
            self.write(lpn)
        overwrites = int(footprint_pages * overwrite_fraction)
        if overwrites:
            lpns = rng.integers(0, footprint_pages, size=overwrites)
            for lpn in lpns:
                self.write(int(lpn))

    # --- diagnostics --------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Invariant check used by tests: mapping <-> block states agree."""
        for lpn, address in self.mapping.items():
            block = self.block_at(address.block_address)
            stored = block.page_lpn(address.page)
            if stored != lpn:
                raise MappingError(
                    f"LPN {lpn} maps to {address} but page holds {stored}"
                )
        total_valid = sum(
            block.valid_count
            for allocator in self.planes
            for block in allocator.all_blocks
        )
        if total_valid != self.mapping.mapped_count:
            raise MappingError(
                f"valid pages {total_valid} != mapped LPNs "
                f"{self.mapping.mapped_count}"
            )
