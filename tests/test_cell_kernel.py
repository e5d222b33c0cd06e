"""Cell replay kernel: engine equivalence, gating, and the PR-5 fixes."""

import dataclasses

import pytest

from repro.campaign import ShardedResultStore
from repro.config import SsdSpec
from repro.errors import ConfigError
from repro.harness.cache import CACHE_VERSION
from repro.harness.cells import PAPER_SCHEMES, run_workload_cell
from repro.harness.runner import CellJob
from repro.kernels import (
    kernel_replay_supported,
    precondition_kernel,
    run_trace_kernel,
)
from repro.rng import derive
from repro.ssd.builder import build_ssd
from repro.workloads.profiles import profile_by_abbr
from repro.workloads.synthetic import SyntheticTraceGenerator


def _cell(scheme, workload, engine, requests=200):
    return run_workload_cell(
        scheme, 2500, workload, requests=requests, engine=engine
    )


class TestEngineEquivalence:
    """The kernel replay must be report-identical, not just close."""

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_reports_bit_identical_per_scheme(self, scheme):
        obj = _cell(scheme, "ali.A", "object")
        ker = _cell(scheme, "ali.A", "kernel")
        assert ker.to_json_dict() == obj.to_json_dict()

    @pytest.mark.parametrize("workload", ["ali.B", "rsrch"])
    def test_reports_bit_identical_per_workload(self, workload):
        obj = _cell("aero", workload, "object")
        ker = _cell("aero", workload, "kernel")
        assert ker.to_json_dict() == obj.to_json_dict()

    def test_auto_matches_object(self):
        auto = _cell("aero", "ali.A", "auto", requests=120)
        obj = _cell("aero", "ali.A", "object", requests=120)
        assert auto.to_json_dict() == obj.to_json_dict()

    def test_device_state_written_back(self):
        """After a kernel replay the real FTL holds the final mapping."""
        spec = SsdSpec.small_test(seed=0xAE20)
        spec = spec.with_scheduler(erase_suspension=True)

        def final_stats(engine):
            ssd = build_ssd(spec, "aero", pec_setpoint=2500)
            footprint = int(spec.logical_pages * 0.9)
            generator = SyntheticTraceGenerator(
                profile_by_abbr("ali.A"),
                footprint_bytes=int(spec.logical_bytes * 0.85),
                seed=derive(0xAE20, "trace", "ali.A", 2500),
            )
            trace = generator.generate(200)
            if engine == "kernel":
                lean = precondition_kernel(ssd, footprint, write_back=False)
                run_trace_kernel(ssd, trace, lean=lean)
            else:
                ssd.precondition(footprint_pages=footprint)
                ssd.run_trace(trace)
            stats = ssd.ftl.stats
            mapping = [
                ssd.ftl.mapping.lookup(lpn)
                for lpn in range(spec.logical_pages)
            ]
            return (
                mapping,
                stats.host_writes,
                stats.gc_page_moves,
                stats.erases,
                stats.host_reads,
            )

        assert final_stats("kernel") == final_stats("object")


class TestEngineGating:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            _cell("aero", "ali.A", "warp")

    def test_kernel_engine_requires_support(self):
        ssd = build_ssd(SsdSpec.small_test(), "aero", pec_setpoint=2500)
        assert kernel_replay_supported(ssd)

    def test_fingerprint_ignores_engine(self):
        """Both engines share one cache entry (reports are identical)."""
        base = CellJob(
            scheme="aero", pec=2500, workload="ali.A",
            spec=SsdSpec.small_test(), requests=600,
            erase_suspension=True, seed=0xAE20,
        )
        for engine in ("object", "kernel"):
            variant = dataclasses.replace(base, engine=engine)
            assert variant.fingerprint == base.fingerprint
        # The fingerprint still separates inputs that do change reports.
        assert (
            dataclasses.replace(base, requests=601).fingerprint
            != base.fingerprint
        )


class TestPr5Regressions:
    def test_suspended_erase_resumes_before_new_erase(self):
        """ChipExecutor must resume the suspended erase before starting
        a queued one; otherwise read storms interleave two erases and
        the older erase starves past its FIFO turn."""
        from test_scheduler_edges import erase_txn, make_executor, read_txn
        from repro.ssd.request import TxnKind

        sim, executor, done = make_executor()
        first = erase_txn()
        second = erase_txn()
        executor.submit(first)
        # Suspend the first erase with a read, then queue a second
        # erase while the first is parked.
        sim.at(1000.0, lambda: executor.submit(read_txn()))
        sim.at(1100.0, lambda: executor.submit(second))
        sim.run()
        assert executor.erase_suspensions == 1
        assert [txn.kind for txn in done] == [
            TxnKind.READ, TxnKind.ERASE, TxnKind.ERASE,
        ]
        assert done[1] is first
        assert done[2] is second

    def test_truncated_replay_does_not_inherit_full_horizon(self):
        """makespan of a truncated replay floors at the replayed slice's
        horizon, not the full trace's duration."""
        spec = SsdSpec.small_test(seed=7)
        ssd = build_ssd(spec, "baseline", pec_setpoint=500)
        ssd.precondition(footprint_pages=int(spec.logical_pages * 0.5))
        generator = SyntheticTraceGenerator(
            profile_by_abbr("ali.A"),
            footprint_bytes=int(spec.logical_bytes * 0.5),
            seed=3,
        )
        trace = generator.generate(400)
        report = ssd.run_trace(trace, max_requests=40)
        assert report.requests_completed == 40
        sliced_horizon = trace.requests[39].arrival_us
        assert report.makespan_us >= sliced_horizon
        assert report.makespan_us < trace.duration_us

    def test_cache_len_counts_healthy_entries_only(
        self, tmp_path, damage_row
    ):
        cache = ShardedResultStore(tmp_path)
        report = _cell("baseline", "ali.A", "kernel", requests=60)
        good, bad, old = "a" * 64, "b" * 64, "c" * 64
        cache.put(good, report)
        assert len(cache) == 1
        # Torn record and stale-version record both read as misses.
        cache.put(bad, report)
        cache.put(old, report)
        damage_row(tmp_path, bad, "report = substr(report, 1, 40)")
        damage_row(tmp_path, old, "version = ?", CACHE_VERSION - 1)
        cache = ShardedResultStore(tmp_path)
        assert cache.get(bad) is None
        assert cache.get(old) is None
        assert len(cache) == 1
