"""Cell replay kernel: engine equivalence, gating, and the PR-5 fixes."""

import dataclasses

import pytest
from hypothesis import (
    HealthCheck, Phase, assume, given, settings, strategies as st,
)

import repro.kernels.cell as kernel_cell
from repro.campaign import ShardedResultStore
from repro.config import GcSpec, SsdSpec
from repro.errors import ConfigError, SimulationError
from repro.experiments.registry import SCHEMES, WORKLOADS
from repro.harness.cache import CACHE_VERSION
from repro.harness.cells import PAPER_SCHEMES, run_workload_cell
from repro.harness.runner import CellJob
from repro.kernels import (
    kernel_replay_supported,
    precondition_kernel,
    run_trace_kernel,
)
from repro.nand.block import PageState
from repro.nand.chip_types import MLC_3D_48L, TLC_2D_2XNM, TLC_3D_48L
from repro.nand.geometry import NandGeometry
from repro.rng import derive
from repro.ssd.builder import build_ssd
from repro.units import KIB, SECTOR_BYTES
from repro.workloads.profiles import profile_by_abbr
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import Trace


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

    @pytest.mark.parametrize("suspension", [True, False])
    def test_reads_of_never_written_pages(self, suspension):
        """A trace over 95% of the logical space after a 30% fill reads
        pages nothing wrote; the kernel answers them after the
        controller overhead (its ``_CREDIT`` events), as the object
        path does. A grid cell never gets here: its fill covers more of
        the space than its trace addresses."""
        spec = SsdSpec.small_test(seed=7).with_scheduler(
            erase_suspension=suspension
        )
        footprint = int(spec.logical_pages * 0.3)
        trace = SyntheticTraceGenerator(
            profile_by_abbr("usr"),
            footprint_bytes=int(spec.logical_bytes * 0.95),
            seed=derive(7, "trace", "usr", 2500),
        ).generate(400)
        reports, unmapped = [], []
        for engine in ("object", "kernel"):
            ssd = build_ssd(spec, "aero", pec_setpoint=2500)
            if engine == "kernel":
                lean = precondition_kernel(ssd, footprint, write_back=False)
                report = run_trace_kernel(
                    ssd, trace, workload_name="usr", lean=lean,
                    write_back=False,
                )
            else:
                ssd.precondition(footprint_pages=footprint)
                report = ssd.run_trace(trace, workload_name="usr")
            reports.append(report.to_json_dict())
            unmapped.append(ssd.ftl.stats.unmapped_reads)
        assert reports[0] == reports[1]
        assert unmapped[0] == unmapped[1] > 0


#: Hypothesis phases without shrinking: a failing replay example is
#: reported as drawn, since shrinking one takes many minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@st.composite
def _random_specs(draw):
    """Small random drives; specs ``SsdSpec`` rejects are assumed away."""
    low = draw(st.integers(2, 3))
    try:
        spec = SsdSpec(
            geometry=NandGeometry(
                channels=draw(st.integers(1, 2)),
                chips_per_channel=1,
                planes_per_chip=draw(st.integers(1, 2)),
                blocks_per_plane=draw(st.integers(16, 32)),
                pages_per_block=draw(st.integers(16, 32)),
                page_size=4 * KIB,
            ),
            profile=draw(
                st.sampled_from((TLC_3D_48L, TLC_2D_2XNM, MLC_3D_48L))
            ),
            overprovisioning=draw(st.integers(15, 30)) / 100,
            gc=GcSpec(
                low_watermark=low,
                high_watermark=low + draw(st.integers(1, 2)),
            ),
            seed=draw(st.integers(0, 2**16)),
        )
    except ConfigError:
        spec = None
    assume(spec is not None)
    return spec


def _trace(spec, pec, workload, requests):
    return SyntheticTraceGenerator(
        profile_by_abbr(workload),
        footprint_bytes=int(spec.logical_bytes * 0.85),
        seed=derive(spec.seed, "trace", workload, pec),
    ).generate(requests)


def _replay_kept(spec, scheme, pec, workload, requests, engine, erases=None):
    """``run_workload_cell``'s steps on a drive the caller keeps; the
    kernel replay restores the drive (``write_back=True``). On the
    object path, ``erases`` collects the ``(block address, write
    pointer)`` of each erase the replay makes."""
    ssd = build_ssd(spec, scheme, pec_setpoint=pec)
    footprint = int(spec.logical_pages * 0.9)
    trace = _trace(spec, pec, workload, requests)
    if engine == "kernel":
        lean = precondition_kernel(ssd, footprint, write_back=False)
        report = run_trace_kernel(
            ssd, trace, workload_name=workload, lean=lean, write_back=True
        )
    else:
        ssd.precondition(footprint_pages=footprint)
        if erases is not None:
            erase_block = ssd.ftl._erase_block

            def recorded(block):
                erases.append((block.address, block.write_pointer))
                return erase_block(block)

            ssd.ftl._erase_block = recorded
        report = ssd.run_trace(trace, workload_name=workload)
    page_size = spec.geometry.page_size
    trace_writes = sum(
        (r.end_lba * SECTOR_BYTES - 1) // page_size
        - (r.lba * SECTOR_BYTES) // page_size + 1
        for r in trace.requests
        if not r.is_read
    )
    host_writes = footprint + int(footprint * 0.6) + trace_writes
    return report, ssd, host_writes


def _drive_state(ssd):
    """Mapping, per-block pages and wear, allocators and ``FtlStats``,
    after checking the FTL's bookkeeping invariants."""
    ftl = ssd.ftl
    ftl.check_consistency()
    for _, address in ftl.mapping.items():
        block = ftl.block_at(address.block_address)
        assert block.page_state(address.page) is PageState.VALID
    blocks = []
    for allocator in ftl.planes:
        for block in allocator.all_blocks:
            states = [block.page_state(i) for i in range(block.page_count)]
            assert states.count(PageState.VALID) == block.valid_count
            assert states.count(PageState.FREE) == block.free_pages
            blocks.append((
                block.address, block.write_pointer, states,
                [block.page_lpn(i) for i in range(block.page_count)],
                block.wear, block.erase_count,
            ))
    allocators = [
        (
            [block.address for block in allocator._free],
            {
                stream: block.address if block is not None else None
                for stream, block in allocator._active.items()
            },
        )
        for allocator in ftl.planes
    ]
    return dict(ftl.mapping.items()), blocks, allocators, ftl.stats


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=NO_SHRINK,
)
@given(
    spec=_random_specs(),
    scheme=st.sampled_from(SCHEMES.keys()),
    workload=st.sampled_from(WORKLOADS.keys()),
    pec=st.integers(0, 14).map(lambda k: 500 * k),
    suspension=st.booleans(),
    requests=st.integers(20, 250),
)
def test_kernel_matches_object_on_random_configurations(
    spec, scheme, workload, pec, suspension, requests
):
    """Differential oracle: on random valid drives the kernel's report
    (with or without the drive restore, from its own FTL pass or from
    the shared replay log) equals the object path's, and the restored
    drive equals the object path's drive."""
    spec = spec.with_scheduler(erase_suspension=suspension)
    obj, obj_ssd, host_writes = _replay_kept(
        spec, scheme, pec, workload, requests, "object"
    )
    ker, ker_ssd, _ = _replay_kept(
        spec, scheme, pec, workload, requests, "kernel"
    )
    log = kernel_cell._POINT[2]
    hit, hit_ssd, _ = _replay_kept(
        spec, scheme, pec, workload, requests, "kernel"
    )
    assert kernel_cell._POINT[2] is log  # the second replay hit the log
    dropped = run_workload_cell(
        scheme, pec, workload, spec=spec, requests=requests,
        erase_suspension=suspension, seed=spec.seed, engine="kernel",
    )
    assert ker.to_json_dict() == obj.to_json_dict()
    assert hit.to_json_dict() == obj.to_json_dict()
    assert dropped.to_json_dict() == obj.to_json_dict()
    assert _drive_state(ker_ssd) == _drive_state(obj_ssd)
    assert _drive_state(hit_ssd) == _drive_state(obj_ssd)
    assert ker_ssd.ftl.stats.host_writes == host_writes
    assert ker.extra["waf"] == (host_writes + ker.gc_page_moves) / host_writes


@settings(
    max_examples=4,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=NO_SHRINK,
)
@given(
    spec=_random_specs(),
    workload=st.sampled_from(WORKLOADS.keys()),
    pec=st.integers(0, 14).map(lambda k: 500 * k),
    requests=st.integers(20, 250),
)
def test_schemes_share_one_ftl_trajectory(spec, workload, pec, requests):
    """On random valid drives, every scheme and both suspension modes
    erase the shared replay log's victims at its write pointers, in its
    order, on the object path; and every kernel replay that hits the
    log reports what the object path reports and, restored, leaves the
    object path's drive."""
    shared = None
    for suspension in (False, True):
        mode = spec.with_scheduler(erase_suspension=suspension)
        for index, scheme in enumerate(SCHEMES.keys()):
            erases = []
            obj, obj_ssd, _ = _replay_kept(
                mode, scheme, pec, workload, requests, "object", erases
            )
            log = kernel_cell._POINT[2]
            ker, ker_ssd, _ = _replay_kept(
                mode, scheme, pec, workload, requests, "kernel"
            )
            if index:
                assert kernel_cell._POINT[2] is log  # a log hit
            if shared is None:
                log = kernel_cell._POINT[2]
                addresses = [
                    block.address
                    for allocator in obj_ssd.ftl.planes
                    for block in allocator.all_blocks
                ]
                shared = [
                    (addresses[victim], wp)
                    for victim, wp in zip(log.victims, log.wps)
                ]
            assert erases == shared, (scheme, suspension)
            assert ker.to_json_dict() == obj.to_json_dict()
            assert _drive_state(ker_ssd) == _drive_state(obj_ssd)


def test_shared_precondition_layout_equals_the_object_fill(monkeypatch):
    """Fresh drives of one point share one recorded fill (each copies
    the layout and replays its own erases), and a drive that holds data
    refills without touching the share; each ends equal to the object
    path's preconditioned drive."""
    spec = SsdSpec.small_test(seed=21)
    footprint = int(spec.logical_pages * 0.9)
    fills = []
    fill = kernel_cell._fill
    monkeypatch.setattr(
        kernel_cell, "_fill", lambda *args: fills.append(1) or fill(*args)
    )

    def kernel_drive(scheme, ssd=None):
        ssd = ssd or build_ssd(spec, scheme, pec_setpoint=2500)
        precondition_kernel(ssd, footprint, write_back=True)
        return ssd

    def object_drive(scheme, times=1):
        ssd = build_ssd(spec, scheme, pec_setpoint=2500)
        for _ in range(times):
            ssd.precondition(footprint_pages=footprint)
        return ssd

    def state(ssd):
        return _drive_state(ssd), ssd.ftl.leveler.interventions

    precondition_kernel(
        build_ssd(spec, "baseline", pec_setpoint=500), footprint
    )  # the share now holds another point
    del fills[:]
    for scheme in ("baseline", "aero"):
        assert state(kernel_drive(scheme)) == state(object_drive(scheme))
    assert len(fills) == 1  # the aero drive copied the baseline layout
    held = kernel_drive("dpes", ssd=object_drive("dpes"))
    assert state(held) == state(object_drive("dpes", times=2))
    assert len(fills) == 2
    assert state(kernel_drive("iispe")) == state(object_drive("iispe"))
    assert len(fills) == 2  # the held drive left the share in place


def test_shared_precondition_layout_checks_p_e_counts():
    spec = SsdSpec.small_test(seed=22)
    footprint = int(spec.logical_pages * 0.9)
    precondition_kernel(build_ssd(spec, "baseline", pec_setpoint=500), footprint)
    ssd = build_ssd(spec, "baseline", pec_setpoint=500)
    erase = ssd.ftl.scheme.erase
    # An erase that accounts two P/E cycles departs from the recording.
    ssd.ftl.scheme.erase = lambda block, rng: erase(block, rng, cycles=2)
    with pytest.raises(SimulationError, match="P/E counts"):
        precondition_kernel(ssd, footprint)


# --- the replay-log share -----------------------------------------------------
# A point's kernel replays share one FTL pass: the log sits beside the
# shared fill, keyed by the replayed request list.

_SPEC = SsdSpec.small_test(seed=23)


def _kernel_report(trace, scheme="baseline", pec=2500, spec=_SPEC, **kwargs):
    """``run_workload_cell``'s kernel steps on a fresh drive of ``spec``."""
    ssd = build_ssd(spec, scheme, pec_setpoint=pec)
    lean = precondition_kernel(
        ssd, int(spec.logical_pages * 0.9), write_back=False
    )
    return run_trace_kernel(
        ssd, trace, lean=lean, write_back=False, **kwargs
    ).to_json_dict()


def _other_point():
    """Leave another point in the share."""
    _kernel_report(_trace(_SPEC, 500, "hm", 60), pec=500)


@pytest.fixture
def ftl_passes(monkeypatch):
    passes = []
    ftl_pass = kernel_cell._ftl_pass
    monkeypatch.setattr(
        kernel_cell, "_ftl_pass",
        lambda *args: passes.append(1) or ftl_pass(*args),
    )
    return passes


def test_replay_log_is_keyed_by_the_request_list(ftl_passes):
    """A request list that differs in one request, and a shorter slice of
    the same trace, each run their own FTL pass at the same point and
    report what they report when they run first."""
    stock = _trace(_SPEC, 2500, "ali.A", 150)
    requests = list(stock.requests)
    requests[75] = dataclasses.replace(
        requests[75], is_read=not requests[75].is_read
    )
    variants = {
        "one request": dict(trace=Trace(requests, name=stock.name)),
        "max_requests": dict(trace=stock, max_requests=120),
    }
    for name, variant in variants.items():
        _other_point()
        first = _kernel_report(**variant)
        stock_report = _kernel_report(stock)
        del ftl_passes[:]
        assert _kernel_report(**variant) == first, name
        assert len(ftl_passes) == 1, name  # its own pass, not the stock log
        assert first != stock_report, name
    _kernel_report(stock)
    del ftl_passes[:]
    _kernel_report(Trace(list(stock.requests)), scheme="aero")
    assert not ftl_passes  # an equal request list hits


def test_replay_log_untouched_by_a_drive_that_holds_data(ftl_passes):
    """A drive the object path filled, replayed without ``lean`` or after
    a kernel refill, runs its own FTL pass and leaves the share alone."""
    trace = _trace(_SPEC, 2500, "ali.A", 150)
    _kernel_report(trace)
    share = kernel_cell._POINT
    footprint = int(_SPEC.logical_pages * 0.9)
    for fills in (1, 2):
        ssd = build_ssd(_SPEC, "baseline", pec_setpoint=2500)
        ssd.precondition(footprint_pages=footprint)
        lean = None
        if fills == 2:
            lean = precondition_kernel(ssd, footprint, write_back=False)
        oracle = build_ssd(_SPEC, "baseline", pec_setpoint=2500)
        for _ in range(fills):
            oracle.precondition(footprint_pages=footprint)
        del ftl_passes[:]
        report = run_trace_kernel(ssd, trace, lean=lean, write_back=False)
        assert len(ftl_passes) == 1, fills
        assert kernel_cell._POINT is share, fills
        assert report.to_json_dict() == oracle.run_trace(trace).to_json_dict()
    del ftl_passes[:]
    _kernel_report(trace, scheme="dpes")
    assert not ftl_passes  # the share still holds the fresh drive's log


def test_replay_log_hit_checks_p_e_counts(ftl_passes):
    trace = _trace(_SPEC, 2500, "ali.A", 150)
    _kernel_report(trace)
    ssd = build_ssd(_SPEC, "baseline", pec_setpoint=2500)
    lean = precondition_kernel(
        ssd, int(_SPEC.logical_pages * 0.9), write_back=False
    )
    erase = ssd.ftl.scheme.erase
    # An erase that accounts two P/E cycles departs from the log.
    ssd.ftl.scheme.erase = lambda block, rng: erase(block, rng, cycles=2)
    del ftl_passes[:]
    with pytest.raises(SimulationError, match="P/E counts"):
        run_trace_kernel(ssd, trace, lean=lean, write_back=False)
    assert not ftl_passes  # it was a log hit


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
