"""Page-level FTL: mapping, allocation, GC, preconditioning."""

import pytest

from repro.config import SsdSpec
from repro.erase.ispe import BaselineIspeScheme
from repro.errors import MappingError
from repro.ftl.allocator import WriteStream
from repro.ftl.ftl import PageLevelFtl
from repro.ftl.mapping import PageMappingTable
from repro.nand.chip import NandChip
from repro.nand.geometry import PageAddress, PlaneAddress


def build_ftl(spec: SsdSpec):
    geometry = spec.geometry
    chips = [
        NandChip(
            channel=channel,
            chip=chip,
            profile=spec.profile,
            planes=geometry.planes_per_chip,
            blocks_per_plane=geometry.blocks_per_plane,
            pages_per_block=geometry.pages_per_block,
            seed=spec.seed,
        )
        for channel in range(geometry.channels)
        for chip in range(geometry.chips_per_channel)
    ]
    return PageLevelFtl(spec, chips, BaselineIspeScheme(spec.profile))


def plane_of(address: PageAddress) -> PlaneAddress:
    return PlaneAddress(address.channel, address.chip, address.plane)


@pytest.fixture
def ftl(small_spec):
    return build_ftl(small_spec)


class TestMappingTable:
    def test_basic_mapping(self):
        table = PageMappingTable(100)
        address = PageAddress(0, 0, 0, 1, 2)
        assert table.lookup(5) is None
        assert table.update(5, address) is None
        assert table.lookup(5) == address
        assert table.points_at(5, address)

    def test_update_returns_previous(self):
        table = PageMappingTable(100)
        first = PageAddress(0, 0, 0, 1, 2)
        second = PageAddress(0, 0, 0, 1, 3)
        table.update(5, first)
        assert table.update(5, second) == first
        assert table.lookup(5) == second

    def test_lpn_bounds(self):
        table = PageMappingTable(10)
        with pytest.raises(MappingError):
            table.lookup(10)
        with pytest.raises(MappingError):
            table.update(-1, PageAddress(0, 0, 0, 0, 0))
        with pytest.raises(MappingError):
            PageMappingTable(0)


class TestWritePath:
    def test_write_then_read(self, ftl):
        plan = ftl.write(42)
        assert ftl.read(42) == plan.destination
        assert ftl.stats.host_writes == 1

    def test_unmapped_read(self, ftl):
        assert ftl.read(7) is None
        assert ftl.stats.unmapped_reads == 1

    def test_overwrite_invalidates(self, ftl):
        first = ftl.write(42).destination
        second = ftl.write(42).destination
        assert first != second
        block = ftl.block_at(first.block_address)
        from repro.nand.block import PageState

        assert block._page_states[first.page] is PageState.INVALID
        ftl.check_consistency()

    def test_striping_spreads_planes(self, ftl):
        planes = {plane_of(ftl.write(lpn).destination) for lpn in range(8)}
        assert len(planes) == len(ftl.planes)


class TestGarbageCollection:
    def test_gc_triggers_and_reclaims(self, small_spec):
        ftl = build_ftl(small_spec)
        # Hammer a footprint bigger than one plane's free pool to force GC.
        footprint = small_spec.logical_pages
        jobs = []
        for round_index in range(3):
            for lpn in range(0, footprint, 1):
                jobs.extend(ftl.write(lpn).gc_jobs)
        assert jobs, "GC never triggered"
        assert ftl.stats.erases > 0
        for allocator in ftl.planes:
            assert allocator.free_blocks >= small_spec.gc.low_watermark - 1
        ftl.check_consistency()

    def test_gc_jobs_have_consistent_moves(self, small_spec):
        from repro.rng import make_rng

        ftl = build_ftl(small_spec)
        jobs = []
        # Fill once, then overwrite random LPNs: victims then carry a
        # mix of still-valid and invalid pages, forcing live moves.
        for lpn in range(small_spec.logical_pages):
            jobs.extend(ftl.write(lpn).gc_jobs)
        overwrite_rng = make_rng(404)
        for lpn in overwrite_rng.integers(
            0, small_spec.logical_pages, size=3 * small_spec.logical_pages
        ):
            jobs.extend(ftl.write(int(lpn)).gc_jobs)
        moved = [job for job in jobs if job.moves]
        assert moved, "expected at least one GC job with live moves"
        for job in moved:
            for move in job.moves:
                assert plane_of(move.source) == job.plane
                assert plane_of(move.destination) == job.plane
                # Moved data is readable at its new location.
                assert ftl.read(move.lpn) is not None
        assert ftl.stats.gc_page_moves == sum(len(j.moves) for j in jobs)

    def test_erase_results_attached(self, small_spec):
        ftl = build_ftl(small_spec)
        jobs = []
        for round_index in range(3):
            for lpn in range(small_spec.logical_pages):
                jobs.extend(ftl.write(lpn).gc_jobs)
        for job in jobs:
            assert job.erase_result is not None
            assert job.erase_result.latency_us > 0


class TestPrecondition:
    def test_precondition_reaches_steady_state(self, small_spec):
        ftl = build_ftl(small_spec)
        footprint = int(small_spec.logical_pages * 0.9)
        ftl.precondition(footprint, overwrite_fraction=0.5)
        assert ftl.mapping.mapped_count == footprint
        ftl.check_consistency()
        # Every plane above the low watermark, and invalid pages exist.
        total_invalid = 0
        for allocator in ftl.planes:
            assert allocator.free_blocks >= small_spec.gc.low_watermark - 1
            total_invalid += sum(
                b.write_pointer - b.valid_count for b in allocator.all_blocks
            )
        assert total_invalid > 0

    def test_footprint_larger_than_logical_rejected(self, ftl, small_spec):
        with pytest.raises(MappingError):
            ftl.precondition(small_spec.logical_pages + 1)


class TestAllocator:
    def test_streams_are_separate(self, ftl):
        allocator = ftl.planes[0]
        host = allocator.allocate_page(WriteStream.HOST, 1)
        gc = allocator.allocate_page(WriteStream.GC, 2)
        assert host.block_address != gc.block_address

    def test_gc_candidates_exclude_active_and_free(self, ftl):
        allocator = ftl.planes[0]
        page = allocator.allocate_page(WriteStream.HOST, 1)
        active = ftl.block_at(page.block_address)
        candidates = allocator.gc_candidates()
        assert active not in candidates
