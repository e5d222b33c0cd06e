"""Configuration objects for simulated SSDs.

``SsdSpec`` mirrors Table 2 of the paper (architecture and timing of the
simulated SSDs). The full-scale configuration (1024 GB, 8 channels x 2
chips x 4 planes x 497 blocks x 2,112 pages x 16 KiB) is provided for
reference; tests and benchmarks use scaled-down geometries — every
mechanism under study (queueing, GC, erase blocking, suspension) is
shape-independent, and the paper's own evaluation normalizes to
Baseline rather than reporting absolute device-scale numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.nand.chip_types import ChipProfile, TLC_3D_48L
from repro.nand.geometry import NandGeometry
from repro.units import KIB


@dataclass(frozen=True)
class SchedulerSpec:
    """Transaction scheduling policy knobs."""

    #: Service user reads before anything else (paper's extension).
    user_priority: bool = True
    #: Suspend in-flight erases for user reads (Kim et al. [13]).
    erase_suspension: bool = True
    #: Voltage ramp overhead charged on each erase resume (us).
    suspend_overhead_us: float = 40.0
    #: Forward-progress bound: suspensions allowed per erase operation
    #: (practical erase suspension caps retries so an erase cannot be
    #: starved by a read storm); beyond the cap the erase runs out.
    max_suspensions_per_erase: int = 2
    #: Per-plane GC-job backlog beyond which GC/erase escalate priority
    #: (emulates "no longer possible to delay the erase operation").
    gc_escalation_backlog: int = 2


@dataclass(frozen=True)
class GcSpec:
    """Greedy garbage collection policy parameters (Table 2: greedy)."""

    #: Start GC when a plane's free-block count drops below this.
    low_watermark: int = 3
    #: Collect until the free-block count reaches this.
    high_watermark: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.low_watermark < self.high_watermark:
            raise ConfigError("need 1 <= low_watermark < high_watermark")


@dataclass(frozen=True)
class SsdSpec:
    """Complete description of one simulated SSD."""

    geometry: NandGeometry = field(default_factory=NandGeometry)
    profile: ChipProfile = TLC_3D_48L
    #: Overprovisioning ratio (Table 2: 20 %).
    overprovisioning: float = 0.20
    #: Channel bus bandwidth for page transfers (MB/s).
    channel_mb_per_s: float = 1200.0
    #: Fixed controller overhead per page transaction (us).
    controller_overhead_us: float = 3.0
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    gc: GcSpec = field(default_factory=GcSpec)
    #: RNG seed for device process variation and scheme randomness.
    seed: int = 0xAE20

    def __post_init__(self) -> None:
        if not 0.0 <= self.overprovisioning < 0.9:
            raise ConfigError("overprovisioning must be in [0, 0.9)")
        if self.channel_mb_per_s <= 0:
            raise ConfigError("channel bandwidth must be positive")
        geometry = self.geometry
        usable_blocks = geometry.blocks_per_plane - self.gc.high_watermark
        if usable_blocks < 4:
            raise ConfigError("geometry too small for the GC watermarks")
        # Greedy GC runs with fewer than low_watermark free blocks, so at
        # least blocks_per_plane - low_watermark - 1 blocks besides the
        # open host and GC blocks are victim candidates. A plane's
        # logical pages (LPNs stripe across planes) must fit in fewer
        # pages than those candidates hold: then every victim has a free
        # page to reclaim and every collection loop ends. Otherwise GC
        # can move fully valid blocks forever.
        plane_pages = -(-self.logical_pages // geometry.planes)
        reclaimable = (
            geometry.blocks_per_plane - self.gc.low_watermark - 1
        ) * geometry.pages_per_block
        if plane_pages >= reclaimable:
            raise ConfigError(
                f"logical space too large for GC: {plane_pages} logical "
                f"pages per plane need fewer than the {reclaimable} pages "
                "of (blocks_per_plane - low_watermark - 1) blocks; raise "
                "overprovisioning or blocks_per_plane"
            )

    # --- derived ---------------------------------------------------------------

    @property
    def logical_pages(self) -> int:
        """Host-visible logical pages (raw minus overprovisioning)."""
        return int(self.geometry.pages * (1.0 - self.overprovisioning))

    @property
    def logical_bytes(self) -> int:
        """Host-visible capacity in bytes."""
        return self.logical_pages * self.geometry.page_size

    @property
    def page_transfer_us(self) -> float:
        """Channel occupancy for one page transfer (us)."""
        bytes_per_us = self.channel_mb_per_s  # 1 MB/s == 1 byte/us
        return self.geometry.page_size / bytes_per_us

    def with_scheduler(self, **kwargs) -> "SsdSpec":
        """Copy with scheduler knobs overridden."""
        return replace(self, scheduler=replace(self.scheduler, **kwargs))

    # --- canned configurations ----------------------------------------------------

    @classmethod
    def paper_table2(cls) -> "SsdSpec":
        """The paper's full 1024 GB configuration (reference only)."""
        return cls()

    @classmethod
    def small_test(cls, seed: int = 0xAE20) -> "SsdSpec":
        """Tiny SSD for unit/integration tests (a few MB)."""
        return cls(
            geometry=NandGeometry(
                channels=2,
                chips_per_channel=1,
                planes_per_chip=2,
                blocks_per_plane=24,
                pages_per_block=32,
                page_size=4 * KIB,
            ),
            seed=seed,
        )

    @classmethod
    def bench(cls, seed: int = 0xAE20) -> "SsdSpec":
        """Benchmark-scale SSD (~1.2 GB raw): large enough for steady-
        state GC behaviour, small enough for pure-Python event replay."""
        return cls(
            geometry=NandGeometry(
                channels=4,
                chips_per_channel=1,
                planes_per_chip=2,
                blocks_per_plane=96,
                pages_per_block=192,
                page_size=8 * KIB,
            ),
            seed=seed,
        )
