"""Deterministic fault injection and campaign supervision.

The contract pinned here: every fault kind a :class:`FaultPlan` can
express is exercised by a test whose campaign *finishes* — the
injected failure is retried or quarantined, never allowed to abort
the run — and the recovery shows up in telemetry. Tests that need a
real worker death ask for worker processes (``process_workers=2``).
"""

import json
import os
import signal
import sqlite3
from contextlib import closing

import pytest

from repro.campaign import (
    CampaignSpec,
    RetryPolicy,
    ShardedResultStore,
    run_campaign,
)
from repro.campaign.store import _QUARANTINE_FIELDS, DB_NAME
from repro.errors import ConfigError, InjectedFault, PoisonCellError
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NO_FAULTS,
    load_fault_file,
)
from repro.harness import run_workload_cell
from repro.telemetry import parse_text_format, render_text, scoped_registry

SPEC = CampaignSpec(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm",),
    requests=40,
    seed=1234,
)


@pytest.fixture(scope="module")
def report():
    return run_workload_cell("aero", 500, "hm", requests=40, seed=7)


def families_of(registry):
    return parse_text_format(render_text(registry))


def stored_keys(store):
    """Every key ``store`` holds a row for."""
    return [entry.key for entry in store.entries()]


def quarantined(root):
    """The quarantine records of the store at ``root``, oldest first,
    as ``ShardedResultStore.quarantine`` returns them."""
    with closing(sqlite3.connect(root / DB_NAME)) as db:
        rows = db.execute("SELECT * FROM quarantine ORDER BY rowid").fetchall()
    return [
        {**dict(zip(_QUARANTINE_FIELDS, row)), "meta": json.loads(row[5])}
        for row in rows
    ]


# --- plan validation and round-trip ------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec(kind="meteor_strike")
    with pytest.raises(ConfigError):
        FaultSpec(kind="kill_worker")  # cell kinds need a cell
    with pytest.raises(ConfigError):
        FaultSpec(kind="torn_tail")  # put kinds need a put_index
    with pytest.raises(ConfigError):
        FaultSpec(kind="slow_cell", cell=0)  # needs delay_s > 0
    with pytest.raises(ConfigError):
        FaultSpec(kind="kill_worker", cell=0, attempt=0)  # 1-based


#: One valid fault per kind, each with a non-default field.
ONE_OF_EACH_KIND = (
    FaultSpec(kind="torn_tail", put_index=7),
    FaultSpec(kind="corrupt_checksum", put_index=0, attempt=None),
    FaultSpec(kind="crash_before_put", put_index=2),
    FaultSpec(kind="crash_after_put", put_index=3),
    FaultSpec(kind="kill_worker", cell=3, attempt=None),
    FaultSpec(kind="slow_cell", cell=1, delay_s=0.25),
    FaultSpec(kind="compact_interrupt"),
)


def test_fault_plan_json_round_trip(tmp_path):
    assert {spec.kind for spec in ONE_OF_EACH_KIND} == set(FAULT_KINDS)
    plan = FaultPlan(seed=99, faults=ONE_OF_EACH_KIND)
    assert FaultPlan.from_json(plan.to_json()) == plan
    for spec in ONE_OF_EACH_KIND:
        assert FaultSpec.from_json(spec.to_json()) == spec
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"fault_plan": plan.to_dict()}))
    assert load_fault_file(path) == plan
    with pytest.raises(ConfigError):
        FaultPlan.from_dict({"faults": [{"kind": "torn_tail"}], "typo": 1})


def test_fault_plan_in_the_earlier_layout_loads_equal(tmp_path):
    # The layout plans were written in before they shared the spec
    # codec: no version, defaults omitted, "attempt": null spelled out.
    earlier = {
        "seed": 99,
        "faults": [
            {"kind": "kill_worker", "cell": 3, "attempt": None},
            {"kind": "slow_cell", "cell": 1, "delay_s": 0.25},
            {"kind": "torn_tail", "put_index": 7},
            {"kind": "compact_interrupt"},
        ],
    }
    assert FaultPlan.from_dict(earlier) == FaultPlan(
        seed=99,
        faults=(
            FaultSpec(kind="kill_worker", cell=3, attempt=None),
            FaultSpec(kind="slow_cell", cell=1, delay_s=0.25),
            FaultSpec(kind="torn_tail", put_index=7),
            FaultSpec(kind="compact_interrupt"),
        ),
    )
    # CI's chaos plan, as its smoke step writes it.
    path = tmp_path / "chaos-plan.json"
    path.write_text(
        '{"fault_plan": {"seed": 3, "faults": ['
        '{"kind": "kill_worker", "cell": 0, "attempt": 1},'
        '{"kind": "torn_tail", "put_index": 1}]}}'
    )
    assert load_fault_file(path) == FaultPlan(
        seed=3,
        faults=(
            FaultSpec(kind="kill_worker", cell=0),
            FaultSpec(kind="torn_tail", put_index=1),
        ),
    )


#: A valid fault around each integer field, to put a wrong type in.
_AROUND = {
    "cell": {"kind": "kill_worker"},
    "attempt": {"kind": "kill_worker", "cell": 0},
    "put_index": {"kind": "torn_tail"},
}
WRONG_TYPES = [
    pytest.param(
        {"faults": [{**_AROUND[name], name: value}]}, "fault spec", name,
        id=f"{name}={value!r}",
    )
    for name in _AROUND
    for value in ("0", True, 1.5)
] + [
    pytest.param(
        {"faults": [{"kind": "slow_cell", "cell": 0, "delay_s": "abc"}]},
        "fault spec", "delay_s", id="delay_s='abc'",
    ),
    pytest.param({"seed": 3.7}, "fault plan", "seed", id="seed=3.7"),
    pytest.param({"seed": "x"}, "fault plan", "seed", id="seed='x'"),
    pytest.param(
        {"faults": {"kind": "kill_worker", "cell": 0}}, "fault plan",
        "faults", id="faults=object",
    ),
]


@pytest.mark.parametrize("data, label, name", WRONG_TYPES)
def test_wrongly_typed_fault_field_names_the_field(data, label, name):
    # A value of the wrong JSON type is refused, never coerced: "0"
    # would otherwise select no cell and 3.7 would become seed 3.
    with pytest.raises(ConfigError, match=f"^{label} field '{name}' must be"):
        FaultPlan.from_dict(data)


#: Faults that name a field their kind ignores, with that field.
IGNORED_FIELDS = [
    pytest.param({"kind": "crash_after_put", "put_index": 1, "attempt": 2},
                 "attempt", id="put-kind-attempt"),
    pytest.param({"kind": "kill_worker", "cell": 0, "put_index": 5,
                  "delay_s": 9.0}, "put_index", id="cell-kind-put_index"),
    pytest.param({"kind": "kill_worker", "cell": 0, "delay_s": 9.0},
                 "delay_s", id="kill_worker-delay_s"),
    pytest.param({"kind": "torn_tail", "put_index": 0, "cell": 2}, "cell",
                 id="put-kind-cell"),
    pytest.param({"kind": "corrupt_checksum", "put_index": 0,
                  "delay_s": 0.5}, "delay_s", id="put-kind-delay_s"),
    pytest.param({"kind": "slow_cell", "cell": 1, "delay_s": 0.5,
                  "put_index": 0}, "put_index", id="slow_cell-put_index"),
    pytest.param({"kind": "compact_interrupt", "attempt": 3}, "attempt",
                 id="compact-attempt"),
    pytest.param({"kind": "compact_interrupt", "cell": 0}, "cell",
                 id="compact-cell"),
]


@pytest.mark.parametrize("data, name", IGNORED_FIELDS)
def test_fault_field_its_kind_ignores_is_refused(data, name):
    # Loaded silently, such a field reads as narrowing the fault while
    # it fires regardless (attempt 2 of a put fault still hits put 1).
    # At its default (or a null attempt) it loads: ONE_OF_EACH_KIND
    # round-trips through to_dict, which writes every field.
    with pytest.raises(
        ConfigError,
        match=f"^fault spec field '{name}' does not apply to a "
        f"{data['kind']} fault$",
    ):
        FaultPlan.from_dict({"faults": [data]})


def test_cell_predicates_are_pure_and_filtered():
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="kill_worker", cell=2, attempt=None),
            FaultSpec(kind="slow_cell", cell=2, attempt=1, delay_s=0.5),
        )
    )
    assert plan.cell_fault(2, 1) == (0.5, True)
    assert plan.cell_fault(2, 2) == (0.0, True)  # attempt=None
    assert plan.cell_fault(1, 1) == (0.0, False)
    # cells are selected by index and attempt only; an engine filter
    # is an unknown field
    with pytest.raises(ConfigError, match="engine"):
        FaultSpec.from_dict(
            {"kind": "kill_worker", "cell": 2, "engine": "auto"}
        )


def test_torn_cut_is_deterministic_and_bounded():
    plan = FaultPlan(seed=7)
    for length in (3, 10, 500):
        cut = plan.torn_cut(0, length)
        assert cut == plan.torn_cut(0, length)  # same seed, same cut
        assert 1 <= cut <= length - 2
    assert FaultPlan(seed=8).torn_cut(0, 500) != plan.torn_cut(0, 500)


def test_retry_backoff_is_seeded_and_bounded():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=1.0, seed=5)
    first = policy.backoff_s("abc", 1)
    assert first == policy.backoff_s("abc", 1)
    assert 0.05 <= first < 0.15  # base * [0.5, 1.5)
    assert policy.backoff_s("abc", 2) != first
    # capped: attempt 20 cannot exceed cap * 1.5
    assert policy.backoff_s("abc", 20) < 1.5


# --- chaos suite: every fault kind finishes its campaign ---------------------


def test_fault_kind_catalogue_is_covered():
    """Every kind in FAULT_KINDS has a chaos test below."""
    assert set(FAULT_KINDS) == {
        "torn_tail", "corrupt_checksum", "crash_before_put",
        "crash_after_put", "kill_worker", "slow_cell",
        "compact_interrupt",
    }


def injected_count(registry, kind):
    families = families_of(registry)
    if "repro_faults_injected_total" not in families:
        return 0
    return families["repro_faults_injected_total"].value({"kind": kind})


@pytest.mark.parametrize("kind", ["torn_tail", "corrupt_checksum"])
def test_chaos_corrupting_put_faults_finish_the_campaign(tmp_path, kind):
    """A put silently damaged on disk: the campaign finishes (the
    writer believed the append worked); the damaged record reads as a
    miss, so the next run re-executes exactly that cell."""
    plan = FaultPlan(seed=3, faults=(FaultSpec(kind=kind, put_index=0),))
    store = ShardedResultStore(
        tmp_path, fault_injector=FaultInjector(plan)
    )
    with scoped_registry() as registry:
        result = run_campaign(SPEC, store, max_retries=1)
    assert None not in result.reports and result.stats.executed == 2
    assert injected_count(registry, kind) == 1
    # the damaged record is a miss; the healthy one survives
    fresh = ShardedResultStore(tmp_path)
    assert fresh.stats().keys == 1
    with scoped_registry():
        resumed = run_campaign(SPEC, ShardedResultStore(tmp_path))
    assert resumed.stats.resumed == 1 and resumed.stats.executed == 1


@pytest.mark.parametrize("kind", ["crash_before_put", "crash_after_put"])
def test_chaos_crashing_put_faults_retry_the_cell(tmp_path, kind):
    plan = FaultPlan(seed=3, faults=(FaultSpec(kind=kind, put_index=0),))
    store = ShardedResultStore(
        tmp_path, fault_injector=FaultInjector(plan)
    )
    with scoped_registry() as registry:
        result = run_campaign(SPEC, store, max_retries=2)
    assert None not in result.reports and result.stats.retried == 1
    assert injected_count(registry, kind) == 1
    families = families_of(registry)
    assert families["repro_campaign_retries_total"].value(
        {"reason": "persist_fault"}
    ) == 1
    # both records durable despite the mid-append crash
    assert ShardedResultStore(tmp_path).stats().keys == 2


def test_chaos_kill_worker_rebuilds_pool_and_finishes(tmp_path):
    plan = FaultPlan(
        seed=3, faults=(FaultSpec(kind="kill_worker", cell=0, attempt=1),)
    )
    with scoped_registry() as registry:
        result = run_campaign(
            SPEC, tmp_path / "store", fault_plan=plan, max_retries=2,
            process_workers=2,
        )
    assert None not in result.reports
    assert result.stats.retried == 1
    assert result.stats.pool_rebuilds >= 1
    families = families_of(registry)
    assert families["repro_campaign_retries_total"].value(
        {"reason": "worker_death"}
    ) == 1
    assert families["repro_campaign_pool_rebuilds_total"].value() >= 1
    assert injected_count(registry, "kill_worker") == 1


def test_chaos_slow_cell_trips_timeout_then_recovers(tmp_path):
    plan = FaultPlan(
        seed=3,
        faults=(
            FaultSpec(kind="slow_cell", cell=1, attempt=1, delay_s=5.0),
        ),
    )
    with scoped_registry() as registry:
        result = run_campaign(
            SPEC,
            tmp_path / "store",
            fault_plan=plan,
            max_retries=2,
            cell_timeout_s=0.5,
        )
    assert None not in result.reports  # attempt 2 has no fault
    assert result.stats.timeouts == 1
    families = families_of(registry)
    assert families["repro_campaign_timeouts_total"].value() == 1
    assert injected_count(registry, "slow_cell") == 1


def test_chaos_compact_interrupt_is_recoverable(tmp_path, report):
    plan = FaultPlan(seed=3, faults=(FaultSpec(kind="compact_interrupt"),))
    store = ShardedResultStore(tmp_path)
    keys = []
    for n in range(4):
        key = f"{n:02d}" + "e" * 62
        keys.append(key)
        store.put(key, report)
        store.put(key, report)  # superseded duplicate: compaction work
    armed = ShardedResultStore(tmp_path, fault_injector=FaultInjector(plan))
    with scoped_registry() as registry:
        with pytest.raises(InjectedFault):
            armed.compact()
        assert injected_count(registry, "compact_interrupt") == 1
    # The interrupt hit the documented crash window: the compaction's
    # delete staged but not committed, so it rolled back. Recovery is
    # a plain reopen.
    recovered = ShardedResultStore(tmp_path)
    assert sorted(stored_keys(recovered)) == sorted(keys)
    assert recovered.stats().superseded == len(keys)
    recovered.compact()
    assert sorted(stored_keys(recovered)) == sorted(keys)
    assert recovered.stats().superseded == 0


# --- quarantine and poison handling ------------------------------------------


def test_poison_cell_quarantines_and_campaign_finishes(tmp_path):
    plan = FaultPlan(
        seed=3,
        faults=(FaultSpec(kind="kill_worker", cell=0, attempt=None),),
    )
    with scoped_registry() as registry:
        result = run_campaign(
            SPEC,
            tmp_path / "store",
            fault_plan=plan,
            max_retries=1,
            process_workers=2,
        )
    assert None in result.reports
    assert result.stats.quarantined == 1
    assert result.reports[0] is None and result.reports[1] is not None
    assert len(result.grid.cells) == 1
    [record] = result.quarantined
    assert record["reason"] == "worker_death"
    assert record["attempts"] == 2
    families = families_of(registry)
    assert families["repro_campaign_quarantined_total"].value() == 1
    # the quarantine record is durable in the store's database
    assert quarantined(tmp_path / "store") == [record]
    assert record["meta"]["scheme"] == "baseline"


def test_on_poison_fail_raises_poison_cell_error(tmp_path):
    plan = FaultPlan(
        seed=3,
        faults=(FaultSpec(kind="kill_worker", cell=0, attempt=None),),
    )
    with scoped_registry():
        with pytest.raises(PoisonCellError) as excinfo:
            run_campaign(
                SPEC,
                tmp_path / "store",
                fault_plan=plan,
                max_retries=0,
                on_poison="fail",
                process_workers=2,
            )
    assert excinfo.value.index == 0
    assert excinfo.value.fingerprint
    # even the failing mode leaves the quarantine record behind
    assert len(quarantined(tmp_path / "store")) == 1


def test_quarantine_file_round_trips(tmp_path, report):
    # a store created before the quarantine table gains it on open
    ShardedResultStore(tmp_path).put("a" * 64, report)
    with closing(sqlite3.connect(tmp_path / DB_NAME)) as db:
        db.execute("DROP TABLE quarantine")
    record = ShardedResultStore(tmp_path).quarantine(
        "f" * 64, index=3, attempts=4, reason="timeout",
        error="exceeded 1s", meta={"scheme": "aero"},
    )
    [entry] = quarantined(tmp_path)
    assert entry == record and entry["key"] == "f" * 64
    assert entry["attempts"] == 4 and entry["reason"] == "timeout"
    assert entry["meta"] == {"scheme": "aero"}


def test_no_faults_injector_is_inert(tmp_path, report):
    assert not NO_FAULTS
    assert not FaultPlan()
    ordinal = NO_FAULTS.before_put("ab")
    assert NO_FAULTS.mutate_record(ordinal, b'{"x":1}', 7) == (b'{"x":1}', 7)
    NO_FAULTS.after_put(ordinal, "ab")
    NO_FAULTS.on_compact("before-commit")


# --- kill -9 during compaction -----------------------------------------------


class _Sigkill(FaultInjector):
    """Turn the compact_interrupt hook into a real SIGKILL."""

    def fire(self, spec, context):
        os.kill(os.getpid(), signal.SIGKILL)


def _compact_and_die(root):
    store = ShardedResultStore(
        root,
        fault_injector=_Sigkill(
            FaultPlan(faults=(FaultSpec(kind="compact_interrupt"),))
        ),
    )
    store.compact()


def test_kill9_during_compact_then_clean_reopen(tmp_path, report):
    import multiprocessing as mp

    store = ShardedResultStore(tmp_path)
    keys = [f"{n:02d}" + "d" * 62 for n in range(4)]
    for key in keys:
        store.put(key, report)
        store.put(key, report)  # superseded duplicates to compact away
    child = mp.Process(target=_compact_and_die, args=(str(tmp_path),))
    child.start()
    child.join(60)
    assert child.exitcode == -signal.SIGKILL
    # the uncommitted compaction died with the process; a clean reopen
    # discards its WAL tail and sees every record
    recovered = ShardedResultStore(tmp_path)
    assert sorted(stored_keys(recovered)) == sorted(keys)
    for key in keys:
        assert recovered.get(key) == report
    recovered.compact()  # finishing the interrupted job also works
    assert sorted(stored_keys(ShardedResultStore(tmp_path))) == sorted(keys)
