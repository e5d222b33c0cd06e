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
import repro.harness.cells as cells
from repro.harness.cells import PAPER_SCHEMES, Point, run_workload_cell
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
from repro.workloads.trace import Trace, TraceRequest


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

    def test_lean_end_state_equals_the_object_drive(self):
        """After a kernel replay the lean state holds the object path's
        final mapping, pages and allocators, and the real drive its
        wear, erase counts and stats."""
        spec = SsdSpec.small_test(seed=0xAE20)
        spec = spec.with_scheduler(erase_suspension=True)
        _, kernel_ssd, kernel_state, _ = _replay_kept(
            spec, "aero", 2500, "ali.A", 200, "kernel"
        )
        _, object_ssd, object_state, _ = _replay_kept(
            spec, "aero", 2500, "ali.A", 200, "object"
        )
        assert kernel_state == object_state
        assert _real_state(kernel_ssd) == _real_state(object_ssd)

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
                lean = precondition_kernel(ssd, footprint)
                report = run_trace_kernel(
                    ssd, trace, workload_name="usr", lean=lean
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
                chips_per_channel=draw(st.integers(1, 2)),
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


def _replay_kept(
    spec, scheme, pec, workload, requests, engine, erases=None, point=None
):
    """``run_workload_cell``'s steps on a drive the caller keeps.

    Returns the report, the drive, its end FTL state (see
    :func:`_lean_state`: the kernels' lean state, which a replay that
    hits ``point``'s log leaves at the fill's end, or a snapshot of the
    object path's drive after its checks) and the host writes the steps
    made. On the object path, ``erases`` collects the ``(block address,
    write pointer)`` of each erase the replay makes.
    """
    ssd = build_ssd(spec, scheme, pec_setpoint=pec)
    footprint = int(spec.logical_pages * 0.9)
    trace = _trace(spec, pec, workload, requests)
    if engine == "kernel":
        lean = precondition_kernel(ssd, footprint, point=point)
        report = run_trace_kernel(
            ssd, trace, workload_name=workload, lean=lean, point=point
        )
        state = _lean_state(lean)
    else:
        ssd.precondition(footprint_pages=footprint)
        if erases is not None:
            erase_block = ssd.ftl._erase_block

            def recorded(block):
                erases.append((block.address, block.write_pointer))
                return erase_block(block)

            ssd.ftl._erase_block = recorded
        report = ssd.run_trace(trace, workload_name=workload)
        state = _object_state(ssd)
    page_size = spec.geometry.page_size
    trace_writes = sum(
        (r.end_lba * SECTOR_BYTES - 1) // page_size
        - (r.lba * SECTOR_BYTES) // page_size + 1
        for r in trace.requests
        if not r.is_read
    )
    host_writes = footprint + int(footprint * 0.6) + trace_writes
    return report, ssd, state, host_writes


def _lean_state(lean):
    """The mapping; each block's write pointer, valid count, slot LPNs
    and P/E count; and each plane's free order and open blocks."""
    return (
        dict(lean.lmap),
        list(zip(
            lean.blk_wp, lean.blk_valid, map(tuple, lean.blk_lpns),
            lean.blk_pec,
        )),
        [
            (tuple(plane.free), plane.active_host, plane.active_gc)
            for plane in lean.planes
        ],
    )


def _object_state(ssd):
    """:func:`_lean_state` of an object-path drive, after checking the
    FTL's bookkeeping invariants on its pages."""
    ftl = ssd.ftl
    ftl.check_consistency()
    for _, address in ftl.mapping.items():
        block = ftl.block_at(address.block_address)
        assert block.page_state(address.page) is PageState.VALID
    for allocator in ftl.planes:
        for block in allocator.all_blocks:
            states = [block.page_state(i) for i in range(block.page_count)]
            assert states.count(PageState.VALID) == block.valid_count
            assert states.count(PageState.FREE) == block.free_pages
    return _lean_state(kernel_cell._lean_ftl(ftl))


def _real_state(ssd):
    """What the kernels keep on the real drive: each block's wear, the
    ``FtlStats`` and the wear leveler's interventions."""
    ftl = ssd.ftl
    blocks = [
        (block.address, block.wear)
        for allocator in ftl.planes
        for block in allocator.all_blocks
    ]
    return blocks, ftl.stats, ftl.leveler.interventions


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
    (from its own FTL passes, from a point's shared fill and replay log,
    or through ``run_workload_cell``) equals the object path's; the
    kernel's end lean state equals the object path's drive, and its real
    drive holds the object path's wear and stats."""
    spec = spec.with_scheduler(erase_suspension=suspension)
    point = Point()
    obj, obj_ssd, obj_state, host_writes = _replay_kept(
        spec, scheme, pec, workload, requests, "object"
    )
    ker, ker_ssd, ker_state, _ = _replay_kept(
        spec, scheme, pec, workload, requests, "kernel", point=point
    )
    assert point.fill is not None and point.replay is not None
    hit, hit_ssd, _, _ = _replay_kept(  # hits the fill and the log
        spec, scheme, pec, workload, requests, "kernel", point=point
    )
    dropped = run_workload_cell(
        scheme, pec, workload, spec=spec, requests=requests,
        erase_suspension=suspension, seed=spec.seed, engine="kernel",
    )
    assert ker.to_json_dict() == obj.to_json_dict()
    assert hit.to_json_dict() == obj.to_json_dict()
    assert dropped.to_json_dict() == obj.to_json_dict()
    assert ker_state == obj_state
    assert _real_state(ker_ssd) == _real_state(obj_ssd)
    assert _real_state(hit_ssd) == _real_state(obj_ssd)
    assert ker_ssd.ftl.stats.host_writes == host_writes
    assert ker.extra["waf"] == (host_writes + ker.gc_page_moves) / host_writes


@pytest.mark.parametrize("scheme", ["baseline", "aero"])
def test_shared_bus_chips_stay_on_the_event_loop(scheme):
    """Two chips on one channel share its bus, so a chip's transfer
    start depends on the other's: runs off the event loop do not apply
    there (rule (a) in ``repro.kernels.cell``). A kernel that ran them
    anyway reports other latencies on this drive than the object
    path."""
    base = SsdSpec.small_test(seed=1)
    spec = dataclasses.replace(
        base,
        geometry=dataclasses.replace(
            base.geometry, channels=1, chips_per_channel=2
        ),
    )
    reports = [
        run_workload_cell(
            scheme, 2500, "ali.A", spec=spec, requests=60, seed=1,
            engine=engine,
        ).to_json_dict()
        for engine in ("object", "kernel")
    ]
    assert reports[0] == reports[1]


def test_same_instant_completions_follow_their_triggers():
    """On this read-heavy drive, completions of both chips fall at one
    instant after runs took their seqs out of execution order; they
    must be ordered by what executed them (``_earlier``), not by seq.
    A kernel that compared seqs there reports other latencies."""
    spec = SsdSpec.small_test(seed=3)
    reports = [
        run_workload_cell(
            "baseline", 2500, "ali.E", spec=spec, requests=600, seed=3,
            engine=engine,
        ).to_json_dict()
        for engine in ("object", "kernel")
    ]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("suspension", [False, True])
def test_lockstep_reads_on_two_chips_match_object(suspension, monkeypatch):
    """Each request reads 8 pages, 4 on each chip of a two-channel
    drive, while both chips are idle: one admission starts the same
    reads on both, whose completions then tie at the same instants, so
    the kernel compares same-instant completions of two chips
    (``_earlier``). It orders them as the object path does, down to the
    request that completes last."""
    spec = SsdSpec.small_test(seed=5).with_scheduler(
        erase_suspension=suspension
    )
    sectors = spec.geometry.page_size // SECTOR_BYTES
    trace = Trace(
        [
            TraceRequest(
                arrival_us=20_000.0 * i, lba=8 * i * sectors,
                sectors=8 * sectors, is_read=True,
            )
            for i in range(40)
        ],
        name="lockstep",
    )
    deep = []
    earlier = kernel_cell._earlier

    def counting(x, y):
        deep.append((x.fire_at, y.fire_at))
        return earlier(x, y)

    monkeypatch.setattr(kernel_cell, "_earlier", counting)
    reports = []
    for engine in ("object", "kernel"):
        ssd = build_ssd(spec, "aero", pec_setpoint=2500)
        footprint = int(spec.logical_pages * 0.9)
        if engine == "kernel":
            lean = precondition_kernel(ssd, footprint)
            report = run_trace_kernel(ssd, trace, lean=lean)
        else:
            ssd.precondition(footprint_pages=footprint)
            report = ssd.run_trace(trace)
        reports.append(report.to_json_dict())
    assert reports[0] == reports[1]
    assert deep  # same-instant completions, ordered by their runs


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
    erase the point's replay log's victims at its write pointers, in its
    order, on the object path; and every kernel replay of the point
    reports what the object path reports and leaves its wear and stats.
    The first replay runs the point's passes (and ends in the object
    path's lean state); the other nine hit them, suspension flips
    included."""
    point = Point()
    shared = None
    for suspension in (False, True):
        mode = spec.with_scheduler(erase_suspension=suspension)
        for scheme in SCHEMES.keys():
            erases = []
            obj, obj_ssd, obj_state, _ = _replay_kept(
                mode, scheme, pec, workload, requests, "object", erases
            )
            ker, ker_ssd, ker_state, _ = _replay_kept(
                mode, scheme, pec, workload, requests, "kernel", point=point
            )
            if shared is None:
                log = point.replay
                addresses = [
                    block.address
                    for allocator in obj_ssd.ftl.planes
                    for block in allocator.all_blocks
                ]
                shared = [
                    (addresses[victim], wp)
                    for victim, wp in zip(log.victims, log.wps)
                ]
                assert ker_state == obj_state
            assert erases == shared, (scheme, suspension)
            assert ker.to_json_dict() == obj.to_json_dict()
            assert _real_state(ker_ssd) == _real_state(obj_ssd)


def test_shared_precondition_layout_equals_the_object_fill(monkeypatch):
    """Fresh drives of one point share one recorded fill (each copies
    the layout and replays its own erases), and a fill without the
    point, on a fresh drive or on one that holds data, runs its own pass
    and leaves the point's fill alone; each ends with the object path's
    layout, wear and stats."""
    spec = SsdSpec.small_test(seed=21)
    footprint = int(spec.logical_pages * 0.9)
    fills = []
    fill = kernel_cell._fill
    monkeypatch.setattr(
        kernel_cell, "_fill", lambda *args: fills.append(1) or fill(*args)
    )
    point = Point()

    def kernel_drive(scheme, ssd=None, point=point):
        ssd = ssd or build_ssd(spec, scheme, pec_setpoint=2500)
        return ssd, precondition_kernel(ssd, footprint, point=point)

    def object_drive(scheme, times=1):
        ssd = build_ssd(spec, scheme, pec_setpoint=2500)
        for _ in range(times):
            ssd.precondition(footprint_pages=footprint)
        return ssd

    def assert_same(kernel, ssd):
        kernel_ssd, lean = kernel
        assert _lean_state(lean) == _object_state(ssd)
        assert _real_state(kernel_ssd) == _real_state(ssd)

    for scheme in ("baseline", "aero"):
        assert_same(kernel_drive(scheme), object_drive(scheme))
    assert len(fills) == 1  # the aero drive copied the baseline layout
    held = point.fill
    assert_same(kernel_drive("dpes", point=None), object_drive("dpes"))
    assert_same(
        kernel_drive("dpes", ssd=object_drive("dpes"), point=None),
        object_drive("dpes", times=2),
    )
    assert len(fills) == 3 and point.fill is held
    assert_same(kernel_drive("iispe"), object_drive("iispe"))
    assert len(fills) == 3  # the point's fill served the iispe drive


def test_shared_precondition_layout_checks_p_e_counts(monkeypatch):
    spec = SsdSpec.small_test(seed=22)
    footprint = int(spec.logical_pages * 0.9)
    point = Point()
    precondition_kernel(
        build_ssd(spec, "baseline", pec_setpoint=500), footprint, point=point
    )
    ssd = build_ssd(spec, "baseline", pec_setpoint=500)
    erase = ssd.ftl.scheme.erase
    # An erase that accounts two P/E cycles departs from the recording.
    ssd.ftl.scheme.erase = lambda block, rng: erase(block, rng, cycles=2)
    fills = []
    fill = kernel_cell._fill
    monkeypatch.setattr(
        kernel_cell, "_fill", lambda *args: fills.append(1) or fill(*args)
    )
    with pytest.raises(SimulationError, match="P/E counts"):
        precondition_kernel(ssd, footprint, point=point)
    assert not fills  # it copied the point's fill


# --- the replay-log share -----------------------------------------------------
# A point's kernel replays share one FTL pass: the point holds its log.

_SPEC = SsdSpec.small_test(seed=23)


def _kernel_report(trace, scheme="baseline", pec=2500, spec=_SPEC, point=None):
    """``run_workload_cell``'s kernel steps on a fresh drive of ``spec``."""
    ssd = build_ssd(spec, scheme, pec_setpoint=pec)
    lean = precondition_kernel(
        ssd, int(spec.logical_pages * 0.9), point=point
    )
    return run_trace_kernel(
        ssd, trace, lean=lean, point=point
    ).to_json_dict()


@pytest.fixture
def ftl_passes(monkeypatch):
    passes = []
    ftl_pass = kernel_cell._ftl_pass
    monkeypatch.setattr(
        kernel_cell, "_ftl_pass",
        lambda *args: passes.append(1) or ftl_pass(*args),
    )
    return passes


def test_replay_log_is_keyed_by_the_point(ftl_passes):
    """A cell whose point differs from the held one only in its request
    count runs its own FTL pass and reports what it reports when it runs
    first; a cell of the held point, of another scheme, hits its log."""

    def cell(scheme="baseline", requests=150):
        return run_workload_cell(
            scheme, 2500, "ali.A", spec=_SPEC, requests=requests,
            seed=_SPEC.seed, engine="kernel",
        ).to_json_dict()

    first = cell(requests=120)
    stock = cell()  # the held point is now the stock one
    del ftl_passes[:]
    assert cell(requests=120) == first
    assert len(ftl_passes) == 1  # its own pass, not the stock log
    assert first != stock
    cell()
    del ftl_passes[:]
    cell(scheme="aero")
    assert not ftl_passes  # the held point's log hits


def test_replay_log_untouched_by_a_drive_that_holds_data(ftl_passes):
    """A drive the object path filled, replayed from a snapshot of its
    objects or after a kernel refill, and without a point, runs its own
    FTL pass and touches neither a point it was not given nor the
    cells' point."""
    trace = _trace(_SPEC, 2500, "ali.A", 150)
    point = Point()
    _kernel_report(trace, point=point)
    held = (point.fill, point.replay, cells._POINT)
    footprint = int(_SPEC.logical_pages * 0.9)
    for fills in (1, 2):
        ssd = build_ssd(_SPEC, "baseline", pec_setpoint=2500)
        ssd.precondition(footprint_pages=footprint)
        if fills == 2:
            lean = precondition_kernel(ssd, footprint)
        else:
            lean = kernel_cell._lean_ftl(ssd.ftl)
        oracle = build_ssd(_SPEC, "baseline", pec_setpoint=2500)
        for _ in range(fills):
            oracle.precondition(footprint_pages=footprint)
        del ftl_passes[:]
        report = run_trace_kernel(ssd, trace, lean=lean)
        assert len(ftl_passes) == 1, fills
        assert (point.fill, point.replay, cells._POINT) == held, fills
        assert report.to_json_dict() == oracle.run_trace(trace).to_json_dict()
    del ftl_passes[:]
    _kernel_report(trace, scheme="dpes", point=point)
    assert not ftl_passes  # the point still holds the fresh drive's log


def test_replay_log_hit_checks_p_e_counts(ftl_passes):
    trace = _trace(_SPEC, 2500, "ali.A", 150)
    point = Point()
    _kernel_report(trace, point=point)
    ssd = build_ssd(_SPEC, "baseline", pec_setpoint=2500)
    lean = precondition_kernel(
        ssd, int(_SPEC.logical_pages * 0.9), point=point
    )
    erase = ssd.ftl.scheme.erase
    # An erase that accounts two P/E cycles departs from the log.
    ssd.ftl.scheme.erase = lambda block, rng: erase(block, rng, cycles=2)
    del ftl_passes[:]
    with pytest.raises(SimulationError, match="P/E counts"):
        run_trace_kernel(ssd, trace, lean=lean, point=point)
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
