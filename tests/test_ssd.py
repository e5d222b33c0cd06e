"""SSD simulator: channel bus, chip executor, end-to-end replay."""

import pytest

from repro.config import SsdSpec
from repro.errors import SimulationError
from repro.experiments.registry import WORKLOADS
from repro.ssd.builder import build_ssd
from repro.ssd.channel import ChannelBus
from repro.ssd.metrics import LatencyRecorder, normalize
from repro.workloads import SyntheticTraceGenerator, Trace, TraceRequest


class TestChannelBus:
    def test_idle_bus_transfer(self):
        bus = ChannelBus(0, transfer_us_per_page=10.0)
        assert bus.reserve(now=100.0) == pytest.approx(10.0)
        # Busy until 110: a transfer asked for at 105 waits 5.
        assert bus.reserve(now=105.0) == pytest.approx(15.0)

    def test_contention_queues(self):
        bus = ChannelBus(0, transfer_us_per_page=10.0)
        bus.reserve(now=0.0)
        delay = bus.reserve(now=0.0)
        assert delay == pytest.approx(20.0)  # waits 10, transfers 10

    def test_multi_page(self):
        bus = ChannelBus(0, transfer_us_per_page=10.0)
        assert bus.reserve(now=0.0, pages=3) == pytest.approx(30.0)


class TestLatencyRecorder:
    def test_summary(self):
        recorder = LatencyRecorder("read")
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.mean_us == pytest.approx(50.5)
        assert recorder.percentile(99.0) == pytest.approx(99.01, abs=0.5)
        assert len(recorder) == 100

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            LatencyRecorder("x").record(-1.0)

    def test_normalize_guard(self):
        assert normalize(5.0, 10.0) == 0.5
        assert normalize(0.0, 0.0) == 0.0


class TestTraceReplay:
    @pytest.fixture(scope="class")
    def replayed(self):
        spec = SsdSpec.small_test()
        ssd = build_ssd(spec, "baseline", pec_setpoint=500)
        ssd.precondition(footprint_pages=int(spec.logical_pages * 0.85))
        generator = SyntheticTraceGenerator(
            WORKLOADS.resolve("hm"),
            footprint_bytes=int(spec.logical_bytes * 0.8),
            seed=21,
        )
        trace = generator.generate(400)
        report = ssd.run_trace(trace)
        return spec, ssd, trace, report

    def test_all_requests_complete(self, replayed):
        spec, ssd, trace, report = replayed
        assert report.requests_completed == len(trace)
        assert len(report.reads) + len(report.writes) == len(trace)

    def test_read_latency_floor(self, replayed):
        """No read can beat overhead + tR + transfer + decode."""
        spec, ssd, trace, report = replayed
        if len(report.reads):
            floor = spec.controller_overhead_us  # unmapped reads only
            assert min(report.reads.values) >= floor

    def test_makespan_covers_trace(self, replayed):
        spec, ssd, trace, report = replayed
        assert report.makespan_us >= trace.duration_us
        assert report.iops > 0

    def test_state_consistent_after_replay(self, replayed):
        spec, ssd, trace, report = replayed
        ssd.ftl.check_consistency()

    def test_erases_happened_under_write_load(self, replayed):
        spec, ssd, trace, report = replayed
        assert report.erases > 0
        assert report.erase_busy_us > 0


class TestEraseSuspension:
    def _run(self, suspension: bool):
        spec = SsdSpec.small_test(seed=77).with_scheduler(
            erase_suspension=suspension
        )
        ssd = build_ssd(spec, "baseline", pec_setpoint=2500)
        ssd.precondition(footprint_pages=int(spec.logical_pages * 0.9))
        generator = SyntheticTraceGenerator(
            WORKLOADS.resolve("prxy"),
            footprint_bytes=int(spec.logical_bytes * 0.85),
            seed=9,
        )
        return ssd.run_trace(generator.generate(600))

    def test_suspension_reduces_read_tail(self):
        with_suspend = self._run(True)
        without = self._run(False)
        assert with_suspend.erase_suspensions > 0
        assert without.erase_suspensions == 0
        # Suspension protects reads from multi-ms erase blocking.
        assert with_suspend.reads.percentile(99.0) < without.reads.percentile(99.0)


class TestBuilder:
    def test_pec_setpoint_applied(self):
        spec = SsdSpec.small_test()
        ssd = build_ssd(spec, "baseline", pec_setpoint=2500)
        ages = [
            block.wear.age_kilocycles
            for chip in ssd.chips
            for block in chip.iter_blocks()
        ]
        assert min(ages) > 2.2 and max(ages) < 2.8
        assert all(
            block.wear.pec == 2500
            for chip in ssd.chips
            for block in chip.iter_blocks()
        )

    def test_iispe_warmup(self):
        spec = SsdSpec.small_test()
        ssd = build_ssd(spec, "iispe", pec_setpoint=2500)
        scheme = ssd.scheme
        block = next(ssd.chips[0].iter_blocks())
        assert scheme.memorized_loop(block) >= 2

    def test_aero_gets_aero_ftl(self):
        from repro.ftl.aeroftl import AeroFtl

        spec = SsdSpec.small_test()
        ssd = build_ssd(spec, "aero", pec_setpoint=500)
        assert isinstance(ssd.ftl, AeroFtl)

    def test_unknown_scheme_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            build_ssd(SsdSpec.small_test(), "bogus")


class TestSchemeTailOrdering:
    def test_aero_tail_not_worse_than_baseline(self):
        """The paper's core performance claim at low PEC, bench-scale."""
        results = {}
        for key in ("baseline", "aero"):
            spec = SsdSpec.small_test(seed=5)
            ssd = build_ssd(spec, key, pec_setpoint=500)
            ssd.precondition(footprint_pages=int(spec.logical_pages * 0.9))
            generator = SyntheticTraceGenerator(
                WORKLOADS.resolve("ali.A"),
                footprint_bytes=int(spec.logical_bytes * 0.85),
                seed=31,
            )
            report = ssd.run_trace(generator.generate(500))
            results[key] = report.reads.percentile(99.0)
        assert results["aero"] <= results["baseline"] * 1.05
