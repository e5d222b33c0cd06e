"""Telemetry subsystem: registry, exposition, instrumentation.

The contracts pinned here are the ISSUE's acceptance criteria: the
text exposition obeys Prometheus v0.0.4 structure (label escaping,
cumulative histogram buckets, ``+Inf`` == ``_count``, ``_sum``
present), the JSON snapshot and text format describe the same moment,
and a crash-injected-then-resumed campaign exposes metrics where
``executed + resumed == total`` and store put/hit counters reconcile
with ``ShardedResultStore.stats()`` — while resumed reports stay
bit-identical to a fresh serial run.
"""

import json
import math
import sqlite3
import urllib.error
import urllib.request
import zlib
from array import array
from contextlib import closing, contextmanager
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignOrchestrator,
    CampaignSpec,
    ShardedResultStore,
    run_campaign,
)
from repro.campaign.orchestrator import CampaignProgress
from repro.campaign.store import DB_NAME, _decode
from repro.config import SsdSpec
from repro.errors import ConfigError
from repro.experiments.cli import main
from repro.experiments.registry import WORKLOADS
from repro.harness import GridRunner, run_workload_cell
from repro.kernels.cell import precondition_kernel, run_trace_kernel
from repro.ssd.builder import build_ssd
from repro.telemetry import (
    MetricsRegistry,
    parse_text_format,
    render_text,
    scoped_registry,
)
from repro.telemetry.httpd import MetricsServer
from repro.telemetry.instruments import (
    campaign_metrics,
    fault_metrics,
    ftl_erase_metrics,
    kernel_metrics,
    ssd_metrics,
    store_metrics,
)
from repro.workloads.synthetic import SyntheticTraceGenerator

SPEC = CampaignSpec(
    schemes=("baseline", "aero"),
    pec_points=(500,),
    workloads=("hm", "ali.A"),
    requests=120,
    seed=1234,
)


@pytest.fixture(scope="module")
def report():
    return run_workload_cell("aero", 500, "hm", requests=120, seed=7)


@contextmanager
def serving(registry, **kwargs):
    """A started :class:`MetricsServer`, closed on exit."""
    server = MetricsServer(registry, **kwargs).start()
    try:
        yield server
    finally:
        server.close()


def families_of(registry: MetricsRegistry):
    """Render + reparse — every read path in these tests goes through
    the format validator, so structural invariants are always checked."""
    return parse_text_format(render_text(registry))


# --- registry primitives -----------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_ops_total", "ops")
    counter.inc()
    counter.inc(4)
    gauge = registry.gauge("repro_test_depth", "depth")
    gauge.set(7)
    histogram = registry.histogram(
        "repro_test_wait_seconds", "wait", buckets=(0.1, 1.0)
    )
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    families = families_of(registry)
    assert families["repro_test_ops_total"].value() == 5
    assert families["repro_test_depth"].value() == 7
    assert families["repro_test_wait_seconds"].value(
        sample_name="repro_test_wait_seconds_count"
    ) == 3
    assert families["repro_test_wait_seconds"].value(
        {"le": "1.0"}, "repro_test_wait_seconds_bucket"
    ) == 2


def test_counter_rejects_negative_increments():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "t")
    with pytest.raises(ConfigError):
        counter.inc(-1)


def test_redeclaration_is_idempotent_but_conflicts_raise():
    registry = MetricsRegistry()
    first = registry.counter("repro_test_total", "t", labels=("op",))
    again = registry.counter("repro_test_total", "t", labels=("op",))
    assert first is again
    with pytest.raises(ConfigError):
        registry.gauge("repro_test_total", "t")
    with pytest.raises(ConfigError):
        registry.counter("repro_test_total", "t", labels=("other",))


def test_observe_many_matches_scalar_observes():
    import numpy as np

    values = [0.0001, 0.003, 0.02, 0.02, 0.7, 9.0]
    one = MetricsRegistry().histogram("repro_test_seconds", "s")
    for value in values:
        one.observe(value)
    many = MetricsRegistry().histogram("repro_test_seconds", "s")
    many.observe_many(np.asarray(values))
    assert one.snapshot() == many.snapshot()


# --- exposition --------------------------------------------------------------


def test_label_escaping_round_trips():
    registry = MetricsRegistry()
    registry.counter(
        "repro_test_total", "t", labels=("path",)
    ).labels(path='a\\b"c\nd').inc(3)
    families = parse_text_format(render_text(registry))
    assert families["repro_test_total"].value({"path": 'a\\b"c\nd'}) == 3


def test_histogram_exposition_invariants():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "repro_test_seconds", "s", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        histogram.observe(value)
    text = render_text(registry)
    families = parse_text_format(text)  # validator enforces invariants
    family = families["repro_test_seconds"]
    buckets = [
        families["repro_test_seconds"].value(
            {"le": le}, "repro_test_seconds_bucket"
        )
        for le in ("0.1", "1.0", "10.0", "+Inf")
    ]
    assert buckets == sorted(buckets)  # cumulative
    assert buckets[-1] == family.value(
        sample_name="repro_test_seconds_count"
    ) == 5
    assert family.value(
        sample_name="repro_test_seconds_sum"
    ) == pytest.approx(56.05)


def test_json_and_text_expositions_agree():
    registry = MetricsRegistry()
    registry.counter("repro_test_total", "t", labels=("op",)).labels(
        op="read"
    ).inc(2)
    registry.gauge("repro_test_depth", "d").set(1.5)
    registry.histogram("repro_test_seconds", "s").observe(0.2)
    snapshot = registry.snapshot()
    # the JSON exposition *is* the snapshot: rendering it (after a
    # serialization round trip) equals rendering the registry
    round_tripped = json.loads(json.dumps(snapshot))
    assert render_text(round_tripped) == render_text(registry)


def test_parser_rejects_structural_violations():
    with pytest.raises(ConfigError):
        parse_text_format("repro_orphan_total 3\n")  # no # TYPE line
    non_cumulative = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="1.0"} 5\n'
        'repro_h_bucket{le="+Inf"} 3\n'
        "repro_h_sum 1\n"
        "repro_h_count 3\n"
    )
    with pytest.raises(ConfigError):
        parse_text_format(non_cumulative)
    missing_inf = (
        "# TYPE repro_h histogram\n"
        'repro_h_bucket{le="1.0"} 3\n'
        "repro_h_sum 1\n"
        "repro_h_count 3\n"
    )
    with pytest.raises(ConfigError):
        parse_text_format(missing_inf)


def test_metrics_server_serves_text_and_json():
    registry = MetricsRegistry()
    registry.counter("repro_test_total", "t").inc(9)
    with serving(registry) as server:
        with urllib.request.urlopen(server.url, timeout=5) as response:
            assert "version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert parse_text_format(text)["repro_test_total"].value() == 9
        json_url = server.url.replace("/metrics", "/metrics.json")
        with urllib.request.urlopen(json_url, timeout=5) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
        assert render_text(snapshot) == text
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(
                server.url.replace("/metrics", "/nope"), timeout=5
            )


# --- campaign progress edge cases --------------------------------------------


def test_progress_before_first_executed_cell_has_no_rate():
    progress = CampaignProgress(
        total=10, executed=0, resumed=4, elapsed_s=2.0
    )
    assert progress.cells_per_s is None
    assert progress.eta_s is None
    line = progress.format()
    assert "4/10" in line and "ETA" not in line


def test_progress_with_zero_remaining_mid_stream():
    progress = CampaignProgress(
        total=6, executed=2, resumed=4, elapsed_s=1.0
    )
    assert progress.remaining == 0
    assert progress.eta_s == 0.0
    assert "ETA" not in progress.format()  # nothing left to project


def test_progress_of_empty_campaign():
    progress = CampaignProgress(
        total=0, executed=0, resumed=0, elapsed_s=0.0
    )
    assert progress.fraction == 1.0
    assert progress.format().startswith("0/0 cells")


def test_final_progress_reaches_telemetry_without_callback(tmp_path):
    spec = CampaignSpec(
        schemes=("aero",), pec_points=(500,), workloads=("hm",),
        requests=120, seed=1234,
    )
    with scoped_registry() as registry:
        run_campaign(spec, tmp_path / "store")  # no progress callback
        families = families_of(registry)
        assert families["repro_campaign_progress_fraction"].value() == 1.0
        assert families["repro_campaign_eta_seconds"].value() == 0.0
        assert families["repro_campaign_cells_planned"].value() == 1


# --- crash + resume accounting (the acceptance criterion) --------------------


def test_crash_resume_metrics_reconcile(tmp_path):
    reference = GridRunner().run(
        schemes=SPEC.schemes,
        pec_points=SPEC.pec_points,
        workloads=SPEC.workloads,
        requests=SPEC.requests,
        erase_suspension=SPEC.erase_suspension,
        seed=SPEC.seed,
    )
    kill_after = 2

    class Kill(Exception):
        pass

    def bomb(index, job, report, _seen=[0]):  # noqa: B006
        _seen[0] += 1
        if _seen[0] >= kill_after:
            raise Kill()

    with scoped_registry():
        with pytest.raises(Kill):
            CampaignOrchestrator(SPEC, tmp_path, on_cell=bomb).run()

    with scoped_registry() as registry:
        store = ShardedResultStore(tmp_path)
        result = CampaignOrchestrator(SPEC, store).run()
        families = families_of(registry)
        cells = families["repro_campaign_cells_total"]
        executed = cells.value({"outcome": "executed"})
        resumed = cells.value({"outcome": "resumed"})
        assert executed + resumed == len(SPEC.jobs())
        assert executed == result.stats.executed
        assert resumed == result.stats.resumed == kill_after
        # store counters reconcile with the store's own stats(): every
        # executed cell was put exactly once, every resumed cell was
        # one resume-pass hit, every executed cell one resume-pass miss
        stats = store.stats()
        puts = families["repro_store_puts_total"].value(
            {"backend": "sharded"}
        )
        hits = families["repro_store_gets_total"].value(
            {"backend": "sharded", "outcome": "hit"}
        )
        misses = families["repro_store_gets_total"].value(
            {"backend": "sharded", "outcome": "miss"}
        )
        assert puts == executed
        assert hits == resumed
        assert misses == executed
        assert stats.keys == len(SPEC.jobs())
        assert stats.superseded == 0
        # stats() refreshes the data_bytes gauge; re-render to see it
        assert families_of(registry)["repro_store_data_bytes"].value(
            {"backend": "sharded"}
        ) == stats.data_bytes
        # cell wall-time histogram saw exactly the executed cells
        assert families["repro_campaign_cell_wall_seconds"].value(
            sample_name="repro_campaign_cell_wall_seconds_count"
        ) == executed
    # and the resumed campaign is still bit-identical to a fresh
    # serial run — instrumentation never touches results
    assert result.grid == reference


def test_store_gets_count_into_the_registry_current_at_each_get(
    tmp_path, report
):
    """A store keeps its handles per registry, so gets made after a
    ``scoped_registry`` swap (a test, a process worker) count into the
    swapped-in registry, and into the outer one again once it exits;
    ``store_metrics`` resolves the very children the store increments."""

    def gets(registry):
        family = families_of(registry)["repro_store_gets_total"]
        return [
            family.value({"backend": "sharded", "outcome": outcome})
            for outcome in ("hit", "miss")
        ]

    with scoped_registry() as outer:
        store = ShardedResultStore(tmp_path)
        store.put("a" * 64, report)
        assert store.get("a" * 64) is not None
        with scoped_registry() as inner:
            assert store.get("a" * 64) is not None
            assert store.get("b" * 64) is None
            assert store.get("b" * 64) is None
            assert store_metrics("sharded").get_outcome(hit=False).value == 2
        assert store.get("b" * 64) is None
        assert gets(inner) == [1, 2]
        assert gets(outer) == [1, 1]
        assert store_metrics("sharded").get_outcome(hit=True).value == 1


# --- store checksums ---------------------------------------------------------


def test_store_records_carry_verifiable_crc(tmp_path, report):
    store = ShardedResultStore(tmp_path)
    key = "a" * 64
    store.put(key, report)
    with closing(sqlite3.connect(tmp_path / DB_NAME)) as db:
        [(stored, crc)] = db.execute(
            "SELECT report, crc FROM results WHERE key = ?", (key,)
        ).fetchall()
    assert crc == zlib.crc32(stored)
    # the stored bytes pack float lists; the store's decoder restores
    # each as an array("d"), which holds the report's canonical JSON
    # form once turned back into a list
    decoded = _decode(stored)
    for op in ("reads", "writes"):
        assert type(decoded[op]["values"]) is array
        decoded[op]["values"] = decoded[op]["values"].tolist()
    assert decoded == report.to_json_dict()


def test_checksum_mismatch_reads_as_miss_and_counts(
    tmp_path, report, damage_row
):
    store = ShardedResultStore(tmp_path)
    good, bad = "a" * 64, "b" * 64
    store.put(good, report)
    store.put(bad, report)
    # change the bad record's stored report, keeping it valid JSON
    # (requests_completed gains a leading digit) — only the CRC can
    # catch this
    damage_row(
        tmp_path, bad,
        "report = CAST(replace(CAST(report AS TEXT),"
        " '\"requests_completed\":', '\"requests_completed\":1') AS BLOB)",
    )
    with scoped_registry() as registry:
        reopened = ShardedResultStore(tmp_path)
        assert reopened.get(good) == report
        assert bad not in reopened
        assert reopened.get(bad) is None
        stats = reopened.stats()
        assert stats.checksum_failed == 1
        assert stats.keys == 1
        families = families_of(registry)
        assert families["repro_store_bad_entries_total"].value(
            {"backend": "sharded", "reason": "checksum"}
        ) == 1
    # compaction drops the poisoned record for good
    reopened.compact()
    assert ShardedResultStore(tmp_path).stats().checksum_failed == 0


# --- instrumentation boundaries ----------------------------------------------


def test_replay_and_engine_metrics_flow(tmp_path):
    with scoped_registry() as registry:
        run_workload_cell("aero", 500, "hm", requests=120, seed=7)
        families = families_of(registry)
        assert families["repro_ssd_replays_total"].value() == 1
        reads = families["repro_ssd_requests_total"].value({"op": "read"})
        writes = families["repro_ssd_requests_total"].value({"op": "write"})
        assert reads + writes == 120
        assert families["repro_ssd_latency_seconds"].value(
            {"op": "read"}, "repro_ssd_latency_seconds_count"
        ) == reads
        assert families["repro_ssd_erases_total"].value() > 0
        assert families["repro_ssd_erases_total"].value() == families[
            "repro_ssd_erase_latency_seconds"
        ].value(sample_name="repro_ssd_erase_latency_seconds_count")
        assert families["repro_kernel_engine_total"].value(
            {"site": "cell", "engine": "kernel"}
        ) == 1
        assert families["repro_ssd_waf"].value() >= 1.0


def test_replay_metrics_identical_across_engines():
    kwargs = dict(pec=500, workload="hm", requests=120, seed=7)
    with scoped_registry() as kernel_registry:
        run_workload_cell("aero", engine="kernel", **kwargs)
    with scoped_registry() as object_registry:
        run_workload_cell("aero", engine="object", **kwargs)
    kernel_families = families_of(kernel_registry)
    object_families = families_of(object_registry)
    for name in (
        "repro_ssd_requests_total",
        "repro_ssd_erase_suspensions_total",
        "repro_ssd_erase_resumes_total",
        "repro_ssd_host_writes_total",
        "repro_ssd_gc_page_moves_total",
        "repro_ssd_erases_total",
        "repro_ssd_erase_pulses_total",
        "repro_ssd_erase_latency_seconds",
    ):
        assert kernel_families[name].samples == object_families[
            name
        ].samples, name


def _drive_and_traces(count):
    spec = SsdSpec.small_test(seed=21)
    ssd = build_ssd(spec, "aero", pec_setpoint=2500)
    traces = [
        SyntheticTraceGenerator(
            WORKLOADS.resolve("ali.A"),
            footprint_bytes=int(spec.logical_bytes * 0.85),
            seed=40 + index,
        ).generate(150)
        for index in range(count)
    ]
    return ssd, int(spec.logical_pages * 0.9), traces


@pytest.mark.parametrize("engine", ["kernel", "object"])
def test_erase_telemetry_flushed_once_per_replay(engine):
    """Erase counters and the latency histogram are flushed at the end
    of each replay as deltas: after every replay on one drive they equal
    the drive's cumulative FtlStats (preconditioning erases included),
    with nothing counted twice and nothing left pending."""
    with scoped_registry() as registry:
        ssd, footprint, traces = _drive_and_traces(2)
        stats = ssd.ftl.stats
        if engine == "kernel":
            # Each replay continues from the lean state it leaves.
            lean = precondition_kernel(ssd, footprint)
        else:
            ssd.precondition(footprint_pages=footprint)
        assert stats.erases > 0
        for trace in traces:
            if engine == "kernel":
                run_trace_kernel(ssd, trace, lean=lean)
            else:
                ssd.run_trace(trace)
            families = families_of(registry)
            assert families["repro_ssd_erases_total"].value() == stats.erases
            assert families["repro_ssd_erase_pulses_total"].value() == (
                stats.erase_pulses_total
            )
            assert families["repro_ssd_erase_latency_seconds"].value(
                sample_name="repro_ssd_erase_latency_seconds_count"
            ) == stats.erases
            assert stats.pending_erase_latencies_us == []
        assert families["repro_ssd_replays_total"].value() == len(traces)


def test_kernel_replay_calls_erase_boundaries_once_per_erase():
    """perfbench-style instance wrappers on ``scheme.erase`` and
    ``stats.record_erase`` see exactly one call per erase of a kernel
    replay (the per-erase call boundaries stay where tracing hooks in)."""
    ssd, footprint, (trace,) = _drive_and_traces(1)
    lean = precondition_kernel(ssd, footprint)
    scheme, stats = ssd.ftl.scheme, ssd.ftl.stats
    calls = {"erase": 0, "record_erase": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    scheme.erase = counting("erase", scheme.erase)
    stats.record_erase = counting("record_erase", stats.record_erase)
    before = stats.erases
    report = run_trace_kernel(ssd, trace, lean=lean)
    assert report.erases > 0
    assert calls == {"erase": report.erases, "record_erase": report.erases}
    assert stats.erases - before == report.erases


def test_cache_backend_counts_hits_misses_and_bad_entries(
    tmp_path, report, damage_row
):
    with scoped_registry() as registry:
        cache = GridRunner(cache=tmp_path).cache
        key = "d" * 64
        assert cache.get(key) is None            # absent -> plain miss
        cache.put(key, report)
        assert cache.get(key) == report          # hit
        damage_row(tmp_path, key, "report = substr(report, 1, 9)")
        torn = ShardedResultStore(tmp_path)
        assert torn.get(key) is None             # torn -> miss + reason
        families = families_of(registry)
        assert families["repro_store_puts_total"].value(
            {"backend": "sharded"}
        ) == 1
        assert families["repro_store_gets_total"].value(
            {"backend": "sharded", "outcome": "hit"}
        ) == 1
        assert families["repro_store_gets_total"].value(
            {"backend": "sharded", "outcome": "miss"}
        ) == 2
        assert families["repro_store_bad_entries_total"].value(
            {"backend": "sharded", "reason": "torn"}
        ) == 1


# --- CLI surface -------------------------------------------------------------


def test_cli_run_with_store_backend(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    argv = ["run", "--requests", "120", "--seed", "7", "--store", store_dir]
    assert main(argv) == 0
    assert "served from cache: 0" in capsys.readouterr().out
    assert main(argv) == 0
    assert "served from cache: 1" in capsys.readouterr().out
    # the same store resumes a campaign CLI invocation
    assert ShardedResultStore(store_dir).stats().keys == 1


def test_cli_metrics_dump_validates_and_requires(tmp_path, capsys):
    with scoped_registry() as registry:
        registry.counter("repro_test_total", "t").inc(2)
        assert main([
            "metrics", "dump", "--require", "repro_test_total"
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_test_total 2" in out
        assert main([
            "metrics", "dump", "--require", "repro_absent_total"
        ]) == 2
        assert "repro_absent_total" in capsys.readouterr().err


def test_cli_metrics_dump_from_json_snapshot(tmp_path, capsys):
    registry = MetricsRegistry()
    registry.counter("repro_test_total", "t").inc(3)
    snapshot_path = tmp_path / "snap.json"
    snapshot_path.write_text(
        json.dumps(registry.snapshot()), encoding="utf-8"
    )
    assert main([
        "metrics", "dump", "--from-json", str(snapshot_path),
        "--require", "repro_test_total", "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["snapshot_version"] == 1


def test_cli_campaign_run_writes_metrics_snapshot(tmp_path, capsys):
    snapshot_path = tmp_path / "metrics.json"
    with scoped_registry():
        assert main([
            "campaign", "run", "--store", str(tmp_path / "store"),
            "--schemes", "aero", "--pecs", "500", "--workloads", "hm",
            "--requests", "120", "--quiet",
            "--metrics-json", str(snapshot_path),
        ]) == 0
    capsys.readouterr()
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    families = parse_text_format(render_text(snapshot))
    assert families["repro_campaign_cells_total"].value(
        {"outcome": "executed"}
    ) == 1


def test_metrics_server_ephemeral_port_sets_gauge():
    registry = MetricsRegistry()
    with serving(registry, port=0) as server:
        assert server.port != 0
        families = parse_text_format(render_text(registry))
        assert families["repro_metrics_port"].value() == server.port


def test_metrics_server_address_in_use_is_one_line():
    registry = MetricsRegistry()
    with serving(registry, port=0) as server:
        with pytest.raises(ConfigError) as excinfo:
            MetricsServer(MetricsRegistry(), port=server.port).start()
    message = str(excinfo.value)
    assert "cannot bind metrics endpoint" in message
    assert str(server.port) in message
    assert "\n" not in message


# --- cross-process snapshot merging ------------------------------------------


def test_merge_snapshot_adds_counters_and_decumulates_histograms():
    child = MetricsRegistry()
    child.counter("repro_test_total", "t", ["kind"]).labels(kind="a").inc(3)
    child.gauge("repro_test_gauge", "g").set(7)
    hist = child.histogram("repro_test_seconds", "h", buckets=[1.0, 2.0])
    hist.observe(0.5)
    hist.observe(1.5)
    hist.observe(9.0)
    parent = MetricsRegistry()
    parent.merge_snapshot(child.snapshot())
    parent.merge_snapshot(child.snapshot())  # merging is additive
    families = families_of(parent)
    assert families["repro_test_total"].value({"kind": "a"}) == 6
    assert families["repro_test_gauge"].value() == 7
    merged = parent._families.get("repro_test_seconds")._solo()
    assert merged.count == 6
    assert merged.sum == pytest.approx(22.0)
    assert merged.cumulative_buckets() == [(1.0, 2), (2.0, 4), (math.inf, 6)]


def test_merge_snapshot_skips_empty_histograms_and_none():
    child = MetricsRegistry()
    child.histogram("repro_test_seconds", "h", buckets=[1.0])
    parent = MetricsRegistry()
    parent.merge_snapshot(None)
    parent.merge_snapshot({})
    parent.merge_snapshot(child.snapshot())
    # The unobserved histogram must not be created in the parent: that
    # would pin bucket bounds nobody chose.
    assert parent._families.get("repro_test_seconds") is None


def test_process_executor_forwards_child_telemetry():
    from repro.config import SsdSpec
    from repro.harness.runner import CellJob

    spec = SsdSpec.small_test(seed=3)
    jobs = [
        CellJob(scheme="baseline", pec=0, workload="hm", spec=spec,
                requests=120, erase_suspension=True, seed=1),
        CellJob(scheme="aero", pec=0, workload="hm", spec=spec,
                requests=120, erase_suspension=True, seed=2),
    ]
    with scoped_registry() as registry:
        GridRunner(workers=2).execute_jobs(jobs)
        replays = families_of(registry)["repro_ssd_replays_total"]
        assert replays.value() == 2
        latency = registry._families["repro_ssd_latency_seconds"]
        assert latency is not None
        assert sum(
            sample["count"]
            for sample in latency.snapshot()["samples"]
        ) > 0


def test_supervised_process_worker_forwards_child_telemetry(tmp_path):
    from repro.campaign.supervisor import CellSupervisor
    from repro.config import SsdSpec
    from repro.harness.runner import CellJob

    job = CellJob(
        scheme="aero", pec=0, workload="hm",
        spec=SsdSpec.small_test(seed=3), requests=120,
        erase_suspension=True, seed=1,
    )
    with scoped_registry() as registry:
        supervisor = CellSupervisor(workers=2)
        try:
            supervisor.submit(0, job)
            outcome = supervisor.next_outcome()
        finally:
            supervisor.close()
        assert outcome.kind == "done"
        replays = families_of(registry)["repro_ssd_replays_total"]
        assert replays.value() == 1


# --- golden exposition -------------------------------------------------------
#
# Every ``repro_*`` family's name, HELP text, type, labels and bucket
# layout, pinned byte for byte. A deliberate change regenerates the two
# fixture files by running this file as a script.

GOLDEN = Path(__file__).parent / "fixtures" / "telemetry_golden"

ACCESSORS = {
    "campaign_metrics": campaign_metrics,
    "store_metrics": lambda registry: store_metrics("sharded", registry),
    "fault_metrics": fault_metrics,
    "ssd_metrics": ssd_metrics,
    "ftl_erase_metrics": ftl_erase_metrics,
    "kernel_metrics": kernel_metrics,
}


def _touch_every_family():
    """Touch each family through its accessor in the default registry:
    fixed label values for labeled families, fixed observations for
    histograms."""
    campaign = campaign_metrics()
    campaign.planned.set(12)
    campaign.cells.labels(outcome="executed").inc(3)
    campaign.pool_pending.set(4)
    campaign.pool_inflight.set(2)
    campaign.pool_workers.set(2)
    campaign.cell_wall.observe_many([0.07, 0.3, 4.0, 200.0])
    campaign.progress_fraction.set(0.25)
    campaign.eta_seconds.set(90.5)
    campaign.retries.labels(reason="timeout").inc()
    campaign.timeouts.inc()
    campaign.quarantined.inc()
    campaign.pool_rebuilds.inc(2)
    store = store_metrics("sharded")
    store.puts.inc(5)
    store.get_outcome(hit=True).inc(4)
    store.get_outcome(hit=False).inc()
    store.bad_entry("torn").inc()
    store.superseded.inc()
    store.compactions.inc()
    store.reclaimed_bytes.inc(4096)
    store.gc_removed.inc(2)
    store.data_bytes.set(65536)
    store.bytes_written.inc(1234)
    fault_metrics().injected.labels(kind="kill_worker").inc()
    ssd = ssd_metrics()
    ssd.replays.inc()
    ssd.requests.labels(op="read").inc(7)
    ssd.latency.labels(op="read").observe_many([80e-6, 300e-6, 0.03, 2.0])
    ssd.latency.labels(op="write").observe(600e-6)
    ssd.suspensions.inc(2)
    ssd.resumes.inc(2)
    ssd.host_reads.inc(7)
    ssd.host_writes.inc(9)
    ssd.gc_page_moves.inc(11)
    ssd.gc_jobs.inc(3)
    ssd.waf.set(2.25)
    erase = ftl_erase_metrics()
    erase.erases.inc(3)
    erase.pulses.inc(21)
    erase.latency.observe_many([1.5e-3, 4e-3, 60e-3])
    kernel = kernel_metrics()
    kernel.engine_cells.labels(site="cell", engine="kernel").inc()
    kernel.batch_blocks.observe(128.0)


def _golden():
    """``(text exposition, JSON payload)`` of every family touched, plus
    what each accessor's first call alone leaves in a fresh registry."""
    with scoped_registry() as registry:
        _touch_every_family()
        snapshot = registry.snapshot()
    first_call = {}
    for name, accessor in ACCESSORS.items():
        registry = MetricsRegistry()
        accessor(registry)
        first_call[name] = render_text(registry)
        accessor(registry)  # a second call declares nothing new
        assert render_text(registry) == first_call[name], name
    payload = {"snapshot": snapshot, "first_call": first_call}
    return render_text(snapshot), json.dumps(payload, indent=1) + "\n"


def test_exposition_matches_golden():
    with scoped_registry():
        _touch_every_family()  # handles bound here must not leak below
    text, payload = _golden()
    assert text == GOLDEN.with_suffix(".prom").read_text(encoding="utf-8")
    expected = json.loads(
        GOLDEN.with_suffix(".json").read_text(encoding="utf-8")
    )
    assert json.loads(payload) == expected


if __name__ == "__main__":
    text, payload = _golden()
    GOLDEN.with_suffix(".prom").write_text(text, encoding="utf-8")
    GOLDEN.with_suffix(".json").write_text(payload, encoding="utf-8")
