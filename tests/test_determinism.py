"""Determinism and cache regressions for the evaluation harness.

The parallel runner and the result store are only safe because every
cell is a pure function of its inputs; these tests pin that property:
same seed -> identical report, process grid == serial grid
cell-for-cell, cached report == recomputed report, and a warm store
replays a campaign without executing anything.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro.kernels.cell as kernel_cell
from repro.campaign import ShardedResultStore, open_store
from repro.harness import (
    CACHE_VERSION,
    PAPER_SCHEMES,
    CellJob,
    GridRunner,
    run_workload_cell,
)
from repro.config import SsdSpec
from repro.errors import ConfigError, PoisonCellError
from repro.nand.chip_types import TLC_3D_48L
from repro.nand.erase_model import BlockEraseModel
from repro.rng import derive
from repro.ssd.metrics import LatencyRecorder, PerfReport
from repro.telemetry import parse_text_format, render_text, scoped_registry
from repro.workloads.profiles import profile_by_abbr
from repro.workloads.synthetic import SyntheticTraceGenerator

GRID_KWARGS = dict(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm", "ali.A"),
    requests=120,
    seed=1234,
)


def test_same_seed_same_report():
    a = run_workload_cell("aero", 500, "hm", requests=150, seed=11)
    b = run_workload_cell("aero", 500, "hm", requests=150, seed=11)
    assert a == b
    assert a.reads.values == b.reads.values
    assert a.writes.values == b.writes.values


def test_different_seed_different_report():
    a = run_workload_cell("aero", 500, "hm", requests=150, seed=11)
    b = run_workload_cell("aero", 500, "hm", requests=150, seed=12)
    assert a != b


def test_process_grid_equals_serial_grid():
    serial = GridRunner()
    parallel = GridRunner(workers=2)
    grid_s = serial.run(**GRID_KWARGS)
    grid_p = parallel.run(**GRID_KWARGS)
    assert len(grid_s.cells) == len(grid_p.cells) == 4
    for cell_s, cell_p in zip(grid_s.cells, grid_p.cells):
        assert cell_s.key == cell_p.key
        assert cell_s.report == cell_p.report
    assert grid_s == grid_p
    assert parallel.stats.executed == 4


def test_grid_runner_rejects_zero_workers():
    assert GridRunner().workers == 1
    assert GridRunner(workers=3).workers == 3
    with pytest.raises(ConfigError, match="at least 1 worker"):
        GridRunner(workers=0)


def test_process_lifetime_comparison_equals_serial():
    from repro.lifetime import compare_schemes
    from repro.nand.chip_types import TLC_3D_48L

    kwargs = dict(
        scheme_keys=("baseline", "aero"), block_count=12, step=200, seed=6
    )
    serial = compare_schemes(TLC_3D_48L, **kwargs)
    parallel = compare_schemes(
        TLC_3D_48L, runner=GridRunner(workers=2), **kwargs
    )
    assert parallel.to_json_dict() == serial.to_json_dict()


def test_process_fanout_persists_every_cell(tmp_path):
    parallel = GridRunner(workers=2, cache=tmp_path)
    grid_p = parallel.run(**GRID_KWARGS)
    assert parallel.stats.executed == 4
    assert len(ShardedResultStore(tmp_path)) == 4

    rerun = GridRunner(cache=tmp_path)
    assert rerun.run(**GRID_KWARGS) == grid_p
    assert rerun.stats.executed == 0
    assert rerun.stats.cached == 4


def test_failing_job_raises_inline_and_poisons_on_worker():
    job = CellJob(
        scheme="no_such_scheme", pec=500, workload="hm",
        spec=SsdSpec.small_test(seed=1), requests=120,
        erase_suspension=True, seed=1,
    )
    with pytest.raises(PoisonCellError) as inline:
        GridRunner().execute_jobs([job])
    assert isinstance(inline.value.__cause__, ConfigError)
    assert "no_such_scheme" in str(inline.value.__cause__)
    with pytest.raises(PoisonCellError) as info:
        GridRunner(workers=2).execute_jobs([job])
    for error in (inline.value, info.value):
        message = str(error)
        assert "no_such_scheme/500/hm" in message
        assert "ConfigError: " in message
        assert error.index == 0
        assert error.fingerprint == job.fingerprint


def test_repeated_job_runs_once_per_call(tmp_path):
    runner = GridRunner(cache=tmp_path)
    grid = runner.run(
        schemes=("aero", "aero"), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1,
    )
    assert runner.stats.executed == 1
    assert runner.stats.cached == 1
    assert runner.stats.total == 2
    first, second = grid.cells
    assert first.report == second.report
    stats = ShardedResultStore(tmp_path).stats()
    assert stats.keys == 1
    assert stats.superseded == 0


def test_warm_cache_executes_zero_cells(tmp_path):
    cold = GridRunner(cache=tmp_path)
    grid_cold = cold.run(**GRID_KWARGS)
    assert cold.stats.executed == 4
    assert cold.stats.cached == 0

    warm = GridRunner(cache=tmp_path)
    grid_warm = warm.run(**GRID_KWARGS)
    assert warm.stats.executed == 0
    assert warm.stats.cached == 4
    assert grid_warm == grid_cold


def test_cache_resumes_partial_campaign(tmp_path):
    partial = GridRunner(cache=tmp_path)
    partial.run(
        **{**GRID_KWARGS, "workloads": ("hm",)}
    )
    assert partial.stats.executed == 2

    resumed = GridRunner(cache=tmp_path)
    resumed.run(**GRID_KWARGS)
    # The two "hm" cells replay from disk; only "ali.A" cells execute.
    assert resumed.stats.cached == 2
    assert resumed.stats.executed == 2


def test_cache_ignores_corrupt_entries(tmp_path, damage_row):
    runner = GridRunner(cache=tmp_path)
    runner.run(**GRID_KWARGS)
    # Tear every record mid-report (a crash mid-write).
    keys = list(ShardedResultStore(tmp_path).keys())
    assert len(keys) == 4
    for key in keys:
        damage_row(
            tmp_path, key, "report = substr(report, 1, length(report) / 2)"
        )
    rerun = GridRunner(cache=tmp_path)
    rerun.run(**GRID_KWARGS)
    assert rerun.stats.executed == 4


def test_cached_grid_equals_uncached_grid(tmp_path):
    plain = GridRunner().run(**GRID_KWARGS)
    cached = GridRunner(cache=tmp_path).run(**GRID_KWARGS)
    reloaded = GridRunner(cache=tmp_path).run(**GRID_KWARGS)
    assert plain == cached == reloaded


def test_perf_report_json_round_trip():
    report = run_workload_cell("aero", 500, "hm", requests=120, seed=5)
    clone = PerfReport.from_json_dict(report.to_json_dict())
    assert clone == report
    assert clone.reads.percentile(99.0) == report.reads.percentile(99.0)
    assert clone.iops == report.iops
    assert clone.extra == report.extra


def test_json_round_trip_survives_json_text():
    import json

    report = run_workload_cell("baseline", 2500, "usr", requests=100, seed=8)
    text = json.dumps(report.to_json_dict())
    clone = PerfReport.from_json_dict(json.loads(text))
    assert clone == report


def test_latency_recorder_equality():
    a = LatencyRecorder.from_values("reads", [1.0, 2.5])
    b = LatencyRecorder.from_values("reads", [1.0, 2.5])
    c = LatencyRecorder.from_values("reads", [1.0, 2.5, 3.0])
    assert a == b
    assert a != c
    assert a != "reads"


def test_result_cache_round_trip(tmp_path):
    # A path opens as a result store; a store passes through as is.
    cache = open_store(tmp_path)
    assert isinstance(cache, ShardedResultStore)
    assert open_store(cache) is cache
    report = run_workload_cell("aero", 500, "hm", requests=100, seed=3)
    cache.put(KEYS["abc"], report, meta={"scheme": "aero"})
    assert KEYS["abc"] in cache
    assert len(cache) == 1
    assert cache.get(KEYS["abc"]) == report
    assert cache.get(KEYS["missing"]) is None
    assert open_store(str(tmp_path)).get(KEYS["abc"]) == report


def test_custom_workload_profile_runs_and_gets_own_cache_key(tmp_path):
    from repro.workloads.profiles import WorkloadProfile, profile_by_abbr

    custom = WorkloadProfile("synthetic", "custom_0", "cst", 0.5, 16.0, 50.0)
    tweaked_hm = WorkloadProfile("msrc", "hm_0", "hm", 0.75, 8.0, 151.5,
                                 acceleration=10.0)
    runner = GridRunner(cache=tmp_path)
    kwargs = dict(schemes=("baseline",), pec_points=(500,), requests=100,
                  seed=3)
    grid = runner.run(workloads=(custom,), **kwargs)
    assert grid.report("baseline", 500, "cst").workload == "cst"

    # A tweaked profile reusing a registry abbr must not be silently
    # replaced by the stock workload, nor share its cache entry.
    grid_tweaked = runner.run(workloads=(tweaked_hm,), **kwargs)
    assert runner.stats.executed == 1
    grid_stock = runner.run(workloads=("hm",), **kwargs)
    assert runner.stats.executed == 1  # distinct fingerprint: no reuse
    assert grid_tweaked != grid_stock

    # A profile equal to the registry entry shares the stock cache.
    runner.run(workloads=(profile_by_abbr("hm"),), **kwargs)
    assert runner.stats.executed == 0
    assert runner.stats.cached == 1


# --- per-point setup shares ---------------------------------------------------
#
# Consecutive cells of one (PEC, workload) point share their trace, the
# drive's process-variation draws and (kernel engine) the preconditioned
# layout and the replay log through one-entry memos. None of it may
# show in a report.

#: Two grid points, each with the seed the grid planner derives for it.
POINT = (2500, "ali.A", derive(7, "grid", 2500, "ali.A"))
OTHER = (500, "hm", derive(7, "grid", 500, "hm"))


def _counted(monkeypatch, owner, name):
    """Count the calls to ``owner.name`` (a miss of the share before it)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _point_cell(scheme, point, engine="auto", **overrides):
    pec, workload, seed = point
    kwargs = dict(spec=SsdSpec.small_test(seed=seed), requests=100, seed=seed)
    kwargs.update(overrides)
    return run_workload_cell(
        scheme, pec, workload, engine=engine, **kwargs
    ).to_json_dict()


def test_point_shares_never_show_in_reports(monkeypatch):
    generated = _counted(monkeypatch, SyntheticTraceGenerator, "generate")
    fills = _counted(monkeypatch, kernel_cell, "_fill")
    passes = _counted(monkeypatch, kernel_cell, "_ftl_pass")
    _point_cell("baseline", OTHER)  # the memos now hold another point
    del generated[:], fills[:], passes[:]
    canonical = [_point_cell(scheme, POINT) for scheme in PAPER_SCHEMES]
    # Four cells hit the trace, the layout and the replay log.
    assert (len(generated), len(fills), len(passes)) == (1, 1, 1)
    alternating = []
    for scheme in PAPER_SCHEMES:
        _point_cell(scheme, OTHER)
        alternating.append(_point_cell(scheme, POINT))
    # Every lookup missed.
    assert (len(generated), len(fills), len(passes)) == (11, 11, 11)
    objects = [
        _point_cell(scheme, POINT, engine="object") for scheme in PAPER_SCHEMES
    ]
    assert canonical == alternating == objects
    # The object path shares no layout and no replay log.
    assert (len(fills), len(passes)) == (11, 11)


def test_trace_share_keys_every_input(monkeypatch):
    stock = profile_by_abbr("ali.A")
    spec = SsdSpec.small_test(seed=POINT[2])
    variants = {
        "tweaked profile": dict(workload=replace(stock, read_ratio=0.5)),
        "requests": dict(requests=101),
        "spec": dict(spec=replace(spec, overprovisioning=0.25)),
    }

    def cell(workload=stock, **overrides):
        point = (POINT[0], workload, POINT[2])
        return _point_cell("aero", point, **overrides)

    generated = _counted(monkeypatch, SyntheticTraceGenerator, "generate")
    for name, variant in variants.items():
        _point_cell("baseline", OTHER)
        first = cell(**variant)
        stock_report = cell()
        del generated[:]
        assert cell(**variant) == first, name
        assert len(generated) == 1, name  # its own trace, not the stock one
        assert first != stock_report, name


def test_erase_model_draw_share_keeps_jitter_per_model():
    address = (0, 0, 1, 3)
    tweaked = replace(
        TLC_3D_48L, erase_work=replace(TLC_3D_48L.erase_work, base_mean=5.5)
    )
    BlockEraseModel(TLC_3D_48L, 8, *address)  # the memo holds another seed
    tweaked_first = BlockEraseModel(tweaked, 9, *address)
    one = BlockEraseModel(TLC_3D_48L, 9, *address)
    two = BlockEraseModel(TLC_3D_48L, 9, *address)
    assert (one.base, one.rate) == (two.base, two.rate)
    # Each model has its own fresh jitter stream: drawing from one does
    # not advance the other.
    drawn = one.jitter_batch(6).tolist()
    assert two.jitter_batch(6).tolist() == drawn
    assert BlockEraseModel(TLC_3D_48L, 9, *address).jitter_batch(6).tolist() \
        == drawn
    # A profile that shares the cached seed gets its own draws.
    tweaked_again = BlockEraseModel(tweaked, 9, *address)
    assert (tweaked_again.base, tweaked_again.rate) == (
        tweaked_first.base, tweaked_first.rate
    )
    assert tweaked_again.base != one.base


def test_point_shares_hold_across_threads():
    """The memos take no lock: a thread that loses a race only misses a
    share. Cells of two points on more threads than cores, switching
    often, report exactly what they report one at a time."""
    jobs = [
        (scheme, point)
        for point in (POINT, OTHER)
        for scheme in ("baseline", "aero")
    ] * 3
    expected = {job: _point_cell(*job, requests=60) for job in set(jobs)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_point_cell, *job, requests=60) for job in jobs
            ]
            reports = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [expected[job] for job in jobs]


@pytest.mark.parametrize("engine", ["object", "kernel"])
def test_replays_leave_the_shared_trace_unchanged(monkeypatch, engine):
    traces = []
    original = SyntheticTraceGenerator.generate

    def generate(self, count):
        traces.append(original(self, count))
        return traces[-1]

    monkeypatch.setattr(SyntheticTraceGenerator, "generate", generate)
    _point_cell("baseline", OTHER)
    _point_cell("baseline", POINT, engine=engine)
    [_, trace] = traces
    before = (trace.name, list(trace.requests))
    for scheme in ("iispe", "aero"):
        _point_cell(scheme, POINT, engine=engine)
    assert len(traces) == 2  # every replay above used that one trace
    assert (trace.name, list(trace.requests)) == before


def test_fingerprint_sensitivity():
    spec = SsdSpec.small_test(seed=1)
    base = CellJob(
        spec=spec, scheme="aero", pec=500, workload="hm",
        requests=100, erase_suspension=True, seed=1,
    )
    reference = base.fingerprint
    assert replace(base).fingerprint == reference
    for change in (
        {"scheme": "baseline"},
        {"pec": 2500},
        {"workload": "usr"},
        {"requests": 101},
        {"seed": 2},
        {"spec": SsdSpec.small_test(seed=2)},
    ):
        assert replace(base, **change).fingerprint != reference
    assert replace(base, erase_suspension=False).fingerprint != reference


# --- cache correctness regressions ------------------------------------------
# Membership must match retrievability, concurrent puts of one key must
# not lose it, and gc's keep-newest-N budget must never evict a healthy
# entry while keeping an unusable one.

#: Fingerprint-shaped (64 hex digit) keys.
KEYS = {
    name: (name.encode().hex() * 64)[:64]
    for name in ("abc", "missing", "feed01", "feed02",
                 "c0ffee", "aaa", "bbb", "ccc", "ddd", "eee")
}


@pytest.fixture(scope="module")
def small_report():
    return run_workload_cell("aero", 500, "hm", requests=100, seed=3)


#: Row states, each as (UPDATE applied after a healthy put, the
#: ``repro_store_bad_entries_total`` reason a get counts); ``absent``
#: never puts the key at all.
ROW_STATES = {
    "healthy": (None, None),
    "stale": (f"version = {CACHE_VERSION - 1}", "stale"),
    "checksum": ("crc = crc + 1", "checksum"),
    "truncated": ("report = substr(report, 1, 40)", "torn"),
    "absent": (None, None),
}


@pytest.mark.parametrize("state", ROW_STATES)
def test_membership_matches_get_for_every_row_state(
    tmp_path, small_report, damage_row, state
):
    """The store contract: ``key in store`` exactly when ``get``
    returns a result — on the writing handle and on a fresh one."""
    key = KEYS["feed01"]
    damage, reason = ROW_STATES[state]
    writer = ShardedResultStore(tmp_path)
    writer.put(KEYS["feed02"], small_report)  # a healthy sibling
    if state != "absent":
        writer.put(key, small_report)
    if damage is not None:
        damage_row(tmp_path, key, damage)
    for store in (writer, ShardedResultStore(tmp_path)):
        with scoped_registry() as registry:
            served = store.get(key)
            assert (key in store) == (served is not None)
            assert (served == small_report) == (state == "healthy")
            assert store.get(KEYS["feed02"]) == small_report
            families = parse_text_format(render_text(registry))
        bad = families["repro_store_bad_entries_total"].samples.items()
        counts = {dict(labels)["reason"]: value for (_, labels), value in bad}
        assert counts == ({} if reason is None else {reason: 1})


def test_concurrent_same_key_puts_do_not_collide(tmp_path, small_report):
    import threading

    cache = ShardedResultStore(tmp_path)
    errors = []

    def hammer():
        try:
            for _ in range(20):
                cache.put(KEYS["c0ffee"], small_report)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert cache.get(KEYS["c0ffee"]) == small_report
    # every append landed whole: one live key, the rest superseded
    reopened = ShardedResultStore(tmp_path)
    assert reopened.get(KEYS["c0ffee"]) == small_report
    stats = reopened.stats()
    assert (stats.keys, stats.superseded, stats.corrupt_lines) == (1, 79, 0)


def _aged_store(tmp_path, report, damage_row, healthy, corrupt):
    """Healthy records 100 s old (oldest first), then newer corrupt ones."""
    import time as _time

    cache = ShardedResultStore(tmp_path)
    now = _time.time()
    for index, name in enumerate(healthy):
        cache.put(KEYS[name], report)
        damage_row(tmp_path, KEYS[name], "ts = ?", now - 100 + index)
    for index, name in enumerate(corrupt):
        cache.put(KEYS[name], report)
        damage_row(
            tmp_path, KEYS[name], "crc = crc + 1, ts = ?", now + index
        )
    return ShardedResultStore(tmp_path)


def test_gc_budget_prefers_healthy_over_corrupt(
    tmp_path, small_report, damage_row
):
    # two *newer* corrupt entries would win a naive keep-newest-N pass
    cache = _aged_store(
        tmp_path, small_report, damage_row,
        ["aaa", "bbb", "ccc"], ["ddd", "eee"],
    )
    result = cache.gc(max_entries=3, remove_corrupt=False)
    # the budget evicts the unusable entries first, keeping all healthy
    assert {entry.key for entry in result.removed} == {
        KEYS["ddd"], KEYS["eee"]
    }
    assert result.kept == 3
    for name in ("aaa", "bbb", "ccc"):
        assert KEYS[name] in cache


def test_gc_budget_still_trims_oldest_healthy(
    tmp_path, small_report, damage_row
):
    cache = _aged_store(
        tmp_path, small_report, damage_row, ["aaa", "bbb", "ccc"], ["ddd"]
    )
    result = cache.gc(max_entries=2, remove_corrupt=False)
    # corrupt first, then the oldest healthy entry
    assert {entry.key for entry in result.removed} == {
        KEYS["ddd"], KEYS["aaa"]
    }
    assert KEYS["bbb"] in cache and KEYS["ccc"] in cache
    assert KEYS["aaa"] not in ShardedResultStore(tmp_path)
