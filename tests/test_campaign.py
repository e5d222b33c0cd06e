"""Campaign subsystem: result store, campaign spec, orchestrator.

The contracts pinned here: membership == retrievability on the store,
last-write-wins with crash-tolerant reads and compaction, a one-shot
import of the earlier JSONL layout, bit-exact packed float lists in
stored records (rows written before packing still served), campaign
specs planning ``GridRunner.plan``-identical jobs, attempts running
where the supervisor's worker count and timeout put them, and an
interrupted campaign resuming from the store alone into a grid
bit-identical to an uninterrupted serial run with no cell executed
twice.
"""

import gc
import hashlib
import json
import math
import os
import pickle
import shutil
import sqlite3
import struct
import threading
import time
import zlib
from array import array
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    CellSupervisor,
    RetryPolicy,
    ShardedResultStore,
    load_campaign_file,
    run_campaign,
)
from repro.campaign.store import DB_NAME, _decode, _encode
from repro.errors import ConfigError
from repro.experiments import ExperimentSpec
from repro.harness import (
    CACHE_VERSION,
    GridRunner,
    ResultStore,
    run_workload_cell,
)
from repro.lifetime.spec import LifetimeJob
from repro.ssd.metrics import LatencyRecorder, PerfReport

SPEC = CampaignSpec(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm", "ali.A"),
    requests=120,
    seed=1234,
)


def healthy_keys(store):
    """The keys ``store`` serves (no torn, corrupt or stale row)."""
    return [
        entry.key for entry in store.entries()
        if not (entry.corrupt or entry.stale)
    ]


@pytest.fixture(scope="module")
def report():
    return run_workload_cell("aero", 500, "hm", requests=120, seed=7)


def fake_key(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()


def serial_grid(spec: CampaignSpec):
    runner = GridRunner()
    return runner.run(
        schemes=spec.schemes,
        pec_points=spec.pec_points,
        workloads=spec.workloads,
        requests=spec.requests,
        spec=spec.ssd,
        erase_suspension=spec.erase_suspension,
        seed=spec.seed,
    )


# --- result store ------------------------------------------------------------


def test_store_round_trip_and_membership(tmp_path, report):
    store = ShardedResultStore(tmp_path)
    key = fake_key(1)
    assert key not in store
    assert store.get(key) is None
    store.put(key, report, meta={"scheme": "aero"})
    assert key in store
    assert store.get(key) == report
    assert store.stats().keys == 1
    # a fresh handle reads the same state back from disk
    reopened = ShardedResultStore(tmp_path)
    assert key in reopened
    assert reopened.get(key) == report
    assert reopened.entries()[0].meta == {"scheme": "aero"}


def test_store_satisfies_result_store_protocol(tmp_path):
    assert isinstance(ShardedResultStore(tmp_path), ResultStore)


def test_store_last_write_wins(tmp_path, report):
    other = run_workload_cell("aero", 500, "hm", requests=120, seed=8)
    assert other != report
    store = ShardedResultStore(tmp_path)
    key = fake_key(2)
    store.put(key, report)
    store.put(key, other)
    assert store.get(key) == other
    assert store.stats().keys == 1
    assert store.stats().superseded == 1
    # the reopened index resolves the duplicate the same way
    assert ShardedResultStore(tmp_path).get(key) == other


def test_store_tolerates_torn_final_line(tmp_path, report, damage_row):
    store = ShardedResultStore(tmp_path)
    key, torn = fake_key(3), fake_key(4)
    store.put(key, report)
    store.put(torn, report)
    damage_row(tmp_path, torn, "report = substr(report, 1, 40)")
    reopened = ShardedResultStore(tmp_path)
    assert reopened.get(key) == report
    assert torn not in reopened and reopened.get(torn) is None
    assert reopened.stats().corrupt_lines == 1
    # the next put of the torn key heals it
    reopened.put(torn, report)
    assert reopened.get(torn) == report
    assert ShardedResultStore(tmp_path).get(torn) == report


def test_store_stale_version_reads_as_miss(tmp_path, report, damage_row):
    store = ShardedResultStore(tmp_path)
    key = fake_key(5)
    store.put(key, report)
    damage_row(tmp_path, key, "version = ?", CACHE_VERSION - 1)
    reopened = ShardedResultStore(tmp_path)
    assert key not in reopened
    assert reopened.get(key) is None
    assert reopened.stats().stale == 1


def test_store_compaction_squashes_and_prunes(tmp_path, report, damage_row):
    store = ShardedResultStore(tmp_path)
    keys = [fake_key(n) for n in range(4)]
    for key in keys:
        store.put(key, report)
        store.put(key, report)  # superseded duplicate per key
    dead = [fake_key(n) for n in range(4, 12)]
    for key in dead:
        store.put(key, report)
        damage_row(tmp_path, key, "version = ?", CACHE_VERSION - 1)
    before = store.stats()
    assert (before.superseded, before.stale) == (4, len(dead))
    result = store.compact()
    assert result.records_dropped == 4 + len(dead)
    assert result.bytes_reclaimed > 0
    after = store.stats()
    assert after.superseded == 0
    assert after.keys == 4
    assert (after.stale, after.corrupt, after.corrupt_lines) == (0, 0, 0)
    for key in keys:
        assert store.get(key) == report
    # and the compacted layout reads identically from a fresh handle
    reopened = ShardedResultStore(tmp_path)
    for key in keys:
        assert reopened.get(key) == report


@pytest.mark.parametrize("age", [float("nan"), -1.0])
def test_store_gc_refuses_a_nan_or_negative_age(tmp_path, report, age):
    """NaN compares false with everything, so it must be refused like a
    negative age rather than prune nothing."""
    store = ShardedResultStore(tmp_path)
    store.put(fake_key(0), report)
    with pytest.raises(ConfigError, match="older_than_s must be >= 0"):
        store.gc(older_than_s=age)
    assert store.stats().keys == 1


def test_store_gc_matches_cache_semantics(tmp_path, report, damage_row):
    store = ShardedResultStore(tmp_path)
    keys = [fake_key(n) for n in range(5)]
    for key in keys:
        store.put(key, report)
    # age the first two records far into the past
    for key in keys[:2]:
        damage_row(tmp_path, key, "ts = 1.0")
    store = ShardedResultStore(tmp_path)
    result = store.gc(older_than_s=3600.0)
    assert result.removed_count == 2
    assert {entry.key for entry in result.removed} == set(keys[:2])
    assert result.kept == 3
    assert store.stats().keys == 3
    for key in keys[:2]:
        assert key not in store
    for key in keys[2:]:
        assert store.get(key) == report
    # dry-run reports without deleting
    dry = store.gc(max_entries=1, dry_run=True)
    assert dry.removed_count == 2
    assert store.stats().keys == 3


def test_store_gc_ranks_healthy_over_stale(tmp_path, report, damage_row):
    store = ShardedResultStore(tmp_path)
    keys = [fake_key(n) for n in range(4)]
    for key in keys:
        store.put(key, report)
    # make the two *newest* records stale-versioned
    for key in keys[2:]:
        damage_row(tmp_path, key, "version = ?", CACHE_VERSION - 1)
    store = ShardedResultStore(tmp_path)
    result = store.gc(max_entries=2, remove_corrupt=False)
    # the stale survivors are evicted first; both healthy entries stay
    assert {entry.key for entry in result.removed} == set(keys[2:])
    for key in keys[:2]:
        assert store.get(key) == report


def test_store_concurrent_thread_puts(tmp_path, report):
    store = ShardedResultStore(tmp_path)
    keys = [fake_key(n) for n in range(24)]
    errors = []

    def worker(chunk):
        try:
            for key in chunk:
                store.put(key, report)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(keys[i::4],))
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert store.stats().keys == 24
    reopened = ShardedResultStore(tmp_path)
    assert all(reopened.get(key) == report for key in keys)


def _open_database_files(root):
    """Paths under ``root`` this process holds an open descriptor on."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(str(root)):
            found.append(target)
    return found


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_dropped_handles_close_their_connection(tmp_path, report):
    ShardedResultStore(tmp_path).put(fake_key(0), report)
    gc.disable()  # a connection's own reference cycle would keep it open
    try:
        for _ in range(20):
            assert ShardedResultStore(tmp_path).get(fake_key(0)) == report
        assert _open_database_files(tmp_path) == []
    finally:
        gc.enable()


def _put_in_child(store, key, report):
    store.put(key, report)


def test_forked_child_puts_through_inherited_handle(tmp_path, report):
    import multiprocessing as mp

    store = ShardedResultStore(tmp_path)
    store.put(fake_key(0), report)  # the parent's connection is open
    child = mp.get_context("fork").Process(
        target=_put_in_child, args=(store, fake_key(1), report)
    )
    child.start()
    child.join(60)
    assert child.exitcode == 0
    assert store.get(fake_key(1)) == report
    assert sorted(healthy_keys(store)) == sorted([fake_key(0), fake_key(1)])


#: A store in the earlier JSONL layout, written by the previous library
#: version's ``GridRunner(cache=...)`` for the 2-cell grid below. Then,
#: appended by hand: after the baseline cell's record, a stale-version
#: copy, a CRC-off-by-one copy and a torn tail line; after the aero
#: cell's record, a newer CRC-less copy (the pre-checksum format).
JSONL_STORE = Path(__file__).parent / "fixtures" / "jsonl_store"
JSONL_GRID = dict(
    schemes=("baseline", "aero"), pec_points=(500,), workloads=("hm",),
    requests=120, seed=1234,
)


def test_jsonl_store_is_imported_on_first_open(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(JSONL_STORE, root)
    first, second = sorted(root.glob("*/seg-*.jsonl"))
    healthy = json.loads(first.read_text().splitlines()[0])
    crc_less = json.loads(second.read_text().splitlines()[-1])
    assert "crc" in healthy and "crc" not in crc_less

    warm = GridRunner(cache=root)
    assert warm.run(**JSONL_GRID) == GridRunner().run(**JSONL_GRID)
    assert (warm.stats.executed, warm.stats.cached) == (0, 2)
    # exactly the newest healthy record per key: the baseline cell's
    # first record (its newer damaged copies skipped), the aero cell's
    # CRC-less copy
    store = ShardedResultStore(root)
    assert {entry.key: entry.mtime for entry in store.entries()} == {
        healthy["key"]: healthy["ts"], crc_less["key"]: crc_less["ts"],
    }
    stats = store.stats()
    assert (stats.keys, stats.stale, stats.corrupt, stats.corrupt_lines) \
        == (2, 0, 0, 0)
    assert not list(root.glob("**/seg-*.jsonl"))
    assert not (root / "store.json").exists()
    assert not [path for path in root.iterdir() if path.is_dir()]

    # a second open does not import again, even if old files reappear
    store.gc(max_entries=1)
    shutil.copytree(JSONL_STORE, root, dirs_exist_ok=True)
    assert ShardedResultStore(root).stats().keys == 1


# --- record format -----------------------------------------------------------

#: -0.0, infinities, NaN, the smallest subnormals, a mid-range
#: subnormal and the largest decades of the float64 range.
FLOAT_EDGES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1.1125369292536007e-308, 1e308, -1e308]


def float_bits(values):
    return [struct.pack("<d", value) for value in values]


@settings(max_examples=200, deadline=None)
@example(values=FLOAT_EDGES)
@given(values=st.lists(st.floats(), min_size=1))
def test_packed_float_lists_round_trip_bit_exact(values):
    stored = _encode({"values": values, "nested": {"values": values}})
    assert stored.count(b'"<f8"') == 2  # packed, not float literals
    decoded = _decode(stored)
    assert float_bits(decoded["values"]) == float_bits(values)
    assert float_bits(decoded["nested"]["values"]) == float_bits(values)


NOT_ALL_FLOATS = st.one_of(
    st.just([]),
    st.lists(st.integers(), min_size=1),
    st.lists(st.booleans(), min_size=1),
    st.lists(
        st.one_of(st.floats(allow_nan=False), st.integers(), st.booleans(),
                  st.none(), st.text()),
        min_size=2,
    ).filter(lambda values: len(set(map(type, values))) > 1),
)


@given(values=NOT_ALL_FLOATS)
def test_lists_not_all_floats_stay_plain_json(values):
    record = {"values": values}
    stored = _encode(record)
    assert stored == json.dumps(record, separators=(",", ":")).encode()
    assert _decode(stored) == record


def insert_plain_row(root, key, family, result):
    """Store ``result`` as a row written before float packing held it:
    plain float lists under their CRC."""
    payload = json.dumps(result.to_json_dict(), separators=(",", ":")).encode()
    assert b'"<f8"' not in payload
    with closing(sqlite3.connect(root / DB_NAME)) as db:
        with db:
            db.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, 1)",
                (key, CACHE_VERSION, family, time.time(), "{}", payload,
                 zlib.crc32(payload)),
            )


def test_rows_with_plain_float_lists_are_served(tmp_path, report):
    """Rows written before float packing (plain float lists under
    their CRC) are served as they are: one cell report and one
    lifetime curve, inserted the way such a store holds them."""
    curve = LifetimeJob("aero", "3D-TLC-48L", block_count=8, step=200,
                        max_pec=2000).execute()
    rows = {fake_key(60): ("cell", report), fake_key(61): ("lifetime", curve)}
    assert ShardedResultStore(tmp_path).stats().keys == 0  # creates the table
    for key, (family, result) in rows.items():
        insert_plain_row(tmp_path, key, family, result)
    store = ShardedResultStore(tmp_path)
    for key, (_, result) in rows.items():
        assert key in store
        assert store.get(key) == result
    assert store.stats().keys == 2


#: Samples of every type a recorder is built from: ints (2**53 + 1
#: rounds), floats, NumPy float64 scalars and arrays, and the
#: ``array("d")`` the store decodes.
SAMPLES = {
    "ints": [0, 3, 2**53 + 1],
    "floats": [0.1, -0.0, 5e-324, 1e308],
    "mixed": [1, 0.1, 2],
    "numpy_scalars": list(np.array([0.1, 2.5, 1e-300])),
    "numpy_array": np.array([0.1, 2.5, 1e-300]),
    "array": array("d", [0.1, 2.5, 1e-300]),
}


@pytest.mark.parametrize("kind", SAMPLES)
def test_recorder_holds_float64_samples_equal_to_float(kind):
    values = SAMPLES[kind]
    floats = [float(value) for value in values]
    recorder = LatencyRecorder.from_values("read", values)
    assert type(recorder.values) is array
    assert recorder.values.typecode == "d"
    assert float_bits(recorder.values) == float_bits(floats)
    listed = recorder.to_json_dict()["values"]
    assert type(listed) is list and float_bits(listed) == float_bits(floats)
    assert {type(value) for value in listed} == {float}
    if isinstance(values, array):  # a copy, not the decoder's array
        assert recorder.values is not values
        values[0] += 1.0
        assert recorder.values[0] == floats[0]
        values[0] -= 1.0


def test_report_round_trips_through_json_pickle_and_store(tmp_path, report):
    canonical = json.dumps(report.to_json_dict(), sort_keys=True)
    store = ShardedResultStore(tmp_path)
    store.put(fake_key(70), report)
    insert_plain_row(tmp_path, fake_key(71), "cell", report)
    clones = {
        "json": PerfReport.from_json_dict(json.loads(canonical)),
        "pickle": pickle.loads(pickle.dumps(report)),
        "store": store.get(fake_key(70)),
        "plain row": ShardedResultStore(tmp_path).get(fake_key(71)),
    }
    for how, clone in clones.items():
        assert clone == report, how
        assert json.dumps(clone.to_json_dict(), sort_keys=True) == canonical
        for op in ("reads", "writes"):
            values = getattr(clone, op).values
            assert type(values) is array, how
            assert float_bits(values) == float_bits(getattr(report, op).values)


def test_grid_runner_accepts_sharded_store(tmp_path):
    store = ShardedResultStore(tmp_path)
    cold = GridRunner(cache=store)
    grid_cold = cold.run(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    assert cold.stats.executed == 1
    warm = GridRunner(cache=ShardedResultStore(tmp_path))
    grid_warm = warm.run(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    assert warm.stats.executed == 0
    assert warm.stats.cached == 1
    assert grid_warm == grid_cold


def test_grid_runner_path_shares_entries_with_orchestrator(tmp_path):
    # GridRunner(cache=<path>) and the orchestrator open one store
    partial = GridRunner(cache=tmp_path)
    assert isinstance(partial.cache, ShardedResultStore)
    partial.run(
        schemes=SPEC.schemes, pec_points=SPEC.pec_points,
        workloads=SPEC.workloads[:1], requests=SPEC.requests,
        seed=SPEC.seed,
    )
    assert partial.stats.executed == 2
    result = CampaignOrchestrator(SPEC, tmp_path).run()
    assert result.stats.resumed == 2
    assert result.stats.executed == len(SPEC.jobs()) - 2
    reread = GridRunner(cache=str(tmp_path))
    assert reread.run(
        schemes=SPEC.schemes, pec_points=SPEC.pec_points,
        workloads=SPEC.workloads, requests=SPEC.requests, seed=SPEC.seed,
    ) == result.grid
    assert reread.stats.executed == 0


# --- campaign spec -----------------------------------------------------------


def test_campaign_jobs_match_grid_runner_plan():
    planned = GridRunner().plan(
        schemes=SPEC.schemes,
        pec_points=SPEC.pec_points,
        workloads=SPEC.workloads,
        requests=SPEC.requests,
        spec=None,
        erase_suspension=True,
        seed=SPEC.seed,
    )
    assert SPEC.jobs() == planned
    assert [job.fingerprint for job in SPEC.jobs()] == [job.fingerprint for job in planned]


def test_campaign_experiments_resolve_to_same_jobs():
    # `run` of one cell and a campaign of the same shape share jobs.
    resolved = [
        ExperimentSpec(
            scheme=scheme, pec=pec, workload=workload,
            requests=SPEC.requests, seed=SPEC.seed,
        ).resolve()
        for pec in SPEC.pec_points
        for workload in SPEC.workloads
        for scheme in SPEC.schemes
    ]
    assert resolved == SPEC.jobs()


def test_campaign_spec_json_round_trip(tmp_path):
    clone = CampaignSpec.from_json(SPEC.to_json())
    assert clone == SPEC
    assert [job.fingerprint for job in clone.jobs()] == [job.fingerprint for job in SPEC.jobs()]
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"campaign": SPEC.to_dict()}))
    assert load_campaign_file(path) == SPEC


def test_campaign_spec_validation_errors():
    with pytest.raises(ConfigError):
        CampaignSpec(schemes=())
    with pytest.raises(ConfigError):
        CampaignSpec(requests=0)
    with pytest.raises(ConfigError):
        CampaignSpec(engine="warp")
    with pytest.raises(ConfigError):
        CampaignSpec(pec_points=(-1,))
    with pytest.raises(ConfigError):
        CampaignSpec.from_dict({"schemes": ["aero"], "mystery": 1})
    with pytest.raises(ConfigError):
        CampaignSpec(schemes=("no_such_scheme",)).validate()


def test_campaign_spec_size():
    assert len(SPEC.jobs()) == 2 * 1 * 2 == len(SPEC.jobs())


# --- orchestrator ------------------------------------------------------------


def test_campaign_equals_serial_grid(tmp_path):
    reference = serial_grid(SPEC)
    result = run_campaign(SPEC, tmp_path, process_workers=2)
    assert result.stats.executed == len(SPEC.jobs())
    assert result.stats.resumed == 0
    assert result.grid == reference


# Module-level probe jobs, so they pickle to worker processes.


@dataclass(frozen=True)
class WhereJob:
    """A job whose report says which process and thread ran it."""

    n: int = 0
    engine: str = "auto"
    family = "probe"

    @property
    def fingerprint(self) -> str:
        return fake_key(1000 + self.n)

    def describe(self) -> str:
        return f"{type(self).__name__}/{self.n}"

    def store_meta(self) -> dict:
        return {"probe": self.n}

    def execute(self):
        return os.getpid(), threading.get_ident()


class InterruptJob(WhereJob):
    def execute(self):
        raise KeyboardInterrupt


class HangingJob(WhereJob):
    def execute(self):
        while True:
            pass


@dataclass(frozen=True)
class ProbeSpec:
    """The slice of a campaign spec the orchestrator reads."""

    job: WhereJob
    seed: int = 0
    size: int = 1

    def jobs(self):
        return [self.job]


def attempt_sites(**supervision):
    supervisor = CellSupervisor(**supervision)
    try:
        for index in range(2):
            supervisor.submit(index, WhereJob(index))
        return [outcome.report for outcome in iter(
            supervisor.next_outcome, None
        )]
    finally:
        supervisor.close()


def test_supervisor_runs_attempts_where_configured():
    caller = (os.getpid(), threading.get_ident())
    assert attempt_sites() == [caller, caller]
    # a timeout needs a worker it can kill, and so does a fan-out
    for supervision in ({"cell_timeout_s": 60.0}, {"workers": 2}):
        pids = {pid for pid, _ in attempt_sites(**supervision)}
        assert os.getpid() not in pids
    # in-process attempts catch Exception only: Ctrl-C is not a
    # failed attempt to retry
    supervisor = CellSupervisor(policy=RetryPolicy(max_retries=2))
    supervisor.submit(0, InterruptJob())
    with pytest.raises(KeyboardInterrupt):
        supervisor.next_outcome()
    assert supervisor.stats["retried"] == 0


def test_timed_out_cell_leaves_nothing_running(tmp_path):
    before = set(threading.enumerate())
    result = CampaignOrchestrator(
        ProbeSpec(HangingJob()), tmp_path, cell_timeout_s=0.5,
        max_retries=1,
    ).run()
    [record] = result.quarantined
    assert record["reason"] == "timeout"
    assert record["attempts"] == 2
    cpu = time.process_time()
    time.sleep(1.0)
    assert time.process_time() - cpu < 0.2  # nothing spins on
    started = [t for t in threading.enumerate() if t not in before]
    assert [t.name for t in started if t.is_alive()] == []


def test_campaign_runs_each_distinct_job_once(tmp_path):
    spec = CampaignSpec(
        schemes=("baseline", "aero", "aero"), pec_points=(500,),
        workloads=("hm",), requests=40, seed=1,
    )
    result = run_campaign(spec, tmp_path / "grid")
    assert (result.stats.executed, result.stats.resumed) == (2, 1)
    assert result.reports[2] is result.reports[1]
    assert ShardedResultStore(tmp_path / "grid").stats().superseded == 0


def test_shutdown_interrupts_pending_cells_then_resumes(tmp_path):
    shutdown = threading.Event()

    def stop(index, job, report):
        shutdown.set()

    result = run_campaign(SPEC, tmp_path, on_cell=stop, shutdown=shutdown)
    assert result.stats.executed == 1
    assert result.stats.interrupted == len(SPEC.jobs()) - 1
    assert None in result.reports
    resumed = run_campaign(SPEC, tmp_path)
    assert resumed.stats.resumed == 1
    assert resumed.stats.executed == len(SPEC.jobs()) - 1
    assert resumed.grid == serial_grid(SPEC)
    assert ShardedResultStore(tmp_path).stats().superseded == 0


def test_thread_workers_keyword_must_be_one(tmp_path):
    CampaignOrchestrator(SPEC, tmp_path, thread_workers=1)
    with pytest.raises(ConfigError, match="process_workers"):
        CampaignOrchestrator(SPEC, tmp_path, thread_workers=2)


def test_campaign_object_engine_matches_serial(tmp_path):
    object_spec = CampaignSpec(
        schemes=("baseline", "aero"), pec_points=(500,),
        workloads=("hm",), requests=120, seed=1234, engine="object",
    )
    reference = serial_grid(object_spec)
    result = run_campaign(object_spec, tmp_path, process_workers=2)
    # engine-free fingerprints: the object-engine campaign shares cells
    # with (and is bit-identical to) the auto-engine serial grid
    assert result.grid == reference


def test_interrupted_campaign_resumes_bit_identical(tmp_path):
    """The acceptance-criteria test: kill mid-run, resume from the
    store alone, end bit-identical to an uninterrupted serial run with
    no cell executed twice."""
    reference = serial_grid(SPEC)
    kill_after = 2

    class Kill(Exception):
        pass

    def bomb(index, job, report, _seen=[0]):
        _seen[0] += 1
        if _seen[0] >= kill_after:
            raise Kill()

    with pytest.raises(Kill):
        CampaignOrchestrator(
            SPEC, tmp_path, process_workers=2, on_cell=bomb
        ).run()
    # the killed run persisted exactly the cells completed before death
    interrupted = ShardedResultStore(tmp_path)
    assert interrupted.stats().keys == kill_after

    # restart from the store alone: a brand-new orchestrator instance
    resumed = CampaignOrchestrator(SPEC, tmp_path, process_workers=2).run()
    assert resumed.stats.resumed == kill_after
    assert resumed.stats.executed == len(SPEC.jobs()) - kill_after
    assert resumed.grid == reference
    # no cell executed twice: every key was written exactly once (the
    # store would count superseded writes otherwise)
    stats = ShardedResultStore(tmp_path).stats()
    assert stats.keys == len(SPEC.jobs())
    assert stats.superseded == 0

    # a third run resumes everything and stays identical
    replay = run_campaign(SPEC, tmp_path)
    assert replay.stats.executed == 0
    assert replay.stats.resumed == len(SPEC.jobs())
    assert replay.grid == reference


def test_campaign_progress_reports(tmp_path):
    snapshots = []
    result = run_campaign(
        SPEC,
        tmp_path,
        process_workers=2,
        progress=snapshots.append,
        progress_interval_s=0.0,
    )
    assert result.stats.executed == len(SPEC.jobs())
    assert snapshots[0].done == 0
    final = snapshots[-1]
    assert final.done == final.total == len(SPEC.jobs())
    assert final.fraction == 1.0
    assert final.cells_per_s is not None and final.cells_per_s > 0
    assert final.remaining == 0
    mid = snapshots[1]
    assert 0 < mid.done <= len(SPEC.jobs())
    assert "cells" in final.format()


def test_campaign_status_without_executing(tmp_path, capsys):
    from repro.experiments.cli import main

    spec_file = tmp_path / "campaign.json"
    spec_file.write_text(SPEC.to_json())
    store = tmp_path / "store"
    ShardedResultStore(store).stats()  # status opens only a store
    argv = ["campaign", "status", "--store", str(store),
            "--spec-file", str(spec_file), "--json"]

    def status():
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["campaign"]

    assert status() == {"family": "cell", "total": len(SPEC.jobs()), "done": 0,
                        "remaining": len(SPEC.jobs())}
    run_campaign(SPEC, store)
    assert status()["done"] == len(SPEC.jobs())


def test_worker_exception_propagates(tmp_path):
    bad = CampaignSpec(
        schemes=("baseline",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    # poison the store so the persist step fails
    class ExplodingStore(ShardedResultStore):
        def put(self, key, report, meta=None):
            raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        CampaignOrchestrator(bad, ExplodingStore(tmp_path)).run()


# --- multi-process writers ---------------------------------------------------
#
# The helpers live at module scope so that (fork or not) the child
# processes can resolve them; each child writes through its own store
# handle and connection, exercising the database's locking for real.


def _mp_writer(root, start, count, requests):
    report = run_workload_cell("aero", 500, "hm", requests=requests, seed=7)
    store = ShardedResultStore(root)
    for n in range(start, start + count):
        store.put(fake_key(n), report)


def _mp_campaign(root):
    run_campaign(SPEC, root, process_workers=2)


def test_two_process_store_writers_lose_nothing(tmp_path):
    """Two writer processes racing a compacting parent: every record
    survives. This is the multi-writer acceptance criterion."""
    import multiprocessing as mp

    per_writer = 40
    writers = [
        mp.Process(
            target=_mp_writer, args=(str(tmp_path), n * per_writer,
                                     per_writer, 40)
        )
        for n in range(2)
    ]
    for writer in writers:
        writer.start()
    # compact continuously while the writers append
    compactor = ShardedResultStore(tmp_path)
    while any(writer.is_alive() for writer in writers):
        compactor.compact()
    for writer in writers:
        writer.join(120)
        assert writer.exitcode == 0
    compactor.compact()
    final = ShardedResultStore(tmp_path)
    expected = sorted(fake_key(n) for n in range(2 * per_writer))
    assert sorted(healthy_keys(final)) == expected
    for key in expected:
        assert key in final


def test_two_orchestrator_processes_share_one_store(tmp_path):
    """Two concurrent orchestrator processes on one store root, then a
    third in-process run: nothing left to execute and the grid is
    bit-identical to an uninterrupted serial run."""
    import multiprocessing as mp

    reference = serial_grid(SPEC)
    racers = [
        mp.Process(target=_mp_campaign, args=(str(tmp_path),))
        for _ in range(2)
    ]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join(600)
        assert racer.exitcode == 0
    replay = run_campaign(SPEC, tmp_path)
    assert replay.stats.executed == 0
    assert replay.stats.resumed == len(SPEC.jobs())
    assert replay.grid == reference
    stats = ShardedResultStore(tmp_path).stats()
    assert stats.keys == len(SPEC.jobs())


def test_two_handles_interleave_put_and_compact(tmp_path, report):
    """The in-process flavour of the race: one handle keeps putting
    while another compacts between its puts; the writer survives the
    compaction and neither handle drops a record."""
    writer = ShardedResultStore(tmp_path)
    compactor = ShardedResultStore(tmp_path)
    writer.put(fake_key(0), report)
    writer.put(fake_key(0), report)  # superseded: gives compact work
    writer.put(fake_key(1), report)
    compactor.compact()
    # the writer's next put lands in the compacted database
    writer.put(fake_key(2), report)
    expected = sorted(fake_key(n) for n in range(3))
    assert sorted(healthy_keys(writer)) == expected
    for key in expected:
        assert writer.get(key) == report
    # a fresh handle (and the compactor, after its own rescan) agree
    assert sorted(healthy_keys(ShardedResultStore(tmp_path))) == expected
    compactor.compact()
    assert sorted(healthy_keys(compactor)) == expected
