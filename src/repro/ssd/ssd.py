"""SSD facade: assembled device + trace replay."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.config import SsdSpec
from repro.erase.scheme import EraseScheme
from repro.errors import SimulationError
from repro.ftl.ftl import PageLevelFtl
from repro.nand.chip import NandChip
from repro.sim.engine import Simulator
from repro.ssd.channel import ChannelBus
from repro.ssd.controller import SsdController
from repro.ssd.metrics import PerfReport
from repro.ssd.scheduler import ChipExecutor
from repro.telemetry.instruments import observe_replay
from repro.workloads.trace import Trace


class Ssd:
    """One simulated SSD: chips + FTL + (per-run) timed front end."""

    def __init__(
        self,
        spec: SsdSpec,
        chips: Sequence[NandChip],
        ftl: PageLevelFtl,
        scheme: EraseScheme,
    ):
        self.spec = spec
        self.chips = list(chips)
        self.ftl = ftl
        self.scheme = scheme

    # --- state preparation -------------------------------------------------------

    def precondition(
        self,
        footprint_pages: Optional[int] = None,
        overwrite_fraction: float = 0.6,
    ) -> None:
        """Fill the drive to steady state (instant, untimed)."""
        if footprint_pages is None:
            footprint_pages = self.spec.logical_pages
        self.ftl.precondition(footprint_pages, overwrite_fraction)

    # --- timed replay ---------------------------------------------------------------

    def run_trace(
        self,
        trace: Trace,
        workload_name: Optional[str] = None,
    ) -> PerfReport:
        """Replay ``trace`` on the event clock and report performance.

        Each call builds a fresh timed front end (simulator, executors,
        controller); device state (mapping, wear) carries over, so a
        drive can be cycled through several measured windows.
        """
        sim = Simulator()
        buses: Dict[int, ChannelBus] = {
            channel: ChannelBus(channel, self.spec.page_transfer_us)
            for channel in range(self.spec.geometry.channels)
        }
        controller_holder: list = []

        def on_complete(txn):
            controller_holder[0].on_txn_complete(txn)

        executors: Dict[tuple, ChipExecutor] = {}
        for chip in self.chips:
            executors[(chip.channel, chip.chip)] = ChipExecutor(
                sim=sim,
                spec=self.spec,
                chip=chip,
                bus=buses[chip.channel],
                on_complete=on_complete,
            )
        controller = SsdController(sim, self.spec, self.ftl, executors)
        controller_holder.append(controller)

        requests = trace.requests
        for trace_request in requests:
            sim.at(
                trace_request.arrival_us,
                lambda r=trace_request: controller.submit(r),
            )
        sim.run(max_events=80_000_000)

        expected = len(requests)
        if controller.requests_completed != expected:
            raise SimulationError(
                f"replay incomplete: {controller.requests_completed}/"
                f"{expected} requests finished"
            )
        report = PerfReport(
            workload=workload_name or trace.name,
            scheme=self.scheme.name,
            reads=controller.reads,
            writes=controller.writes,
            requests_completed=controller.requests_completed,
            makespan_us=max(controller.last_completion_us, trace.duration_us),
            erases=sum(e.erases_completed for e in executors.values()),
            erase_busy_us=sum(e.erase_busy_us for e in executors.values()),
            erase_suspensions=sum(
                e.erase_suspensions for e in executors.values()
            ),
            gc_jobs=self.ftl.stats.gc_jobs,
            gc_page_moves=self.ftl.stats.gc_page_moves,
        )
        report.extra["waf"] = self.ftl.stats.write_amplification
        report.extra["mean_erase_latency_us"] = (
            self.ftl.stats.mean_erase_latency_us
        )
        observe_replay(report, self.ftl.stats)
        return report
