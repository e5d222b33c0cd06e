"""Shared metric families for the instrumented subsystems.

Every instrumented layer (campaign orchestrator, result stores, the
SSD replay path, the kernels) declares its series here, through one
accessor per subsystem returning a namespace of family handles bound
to a registry (the process-global default unless one is injected).
Accessors are get-or-create and cheap — a couple of dict lookups —
so call sites fetch handles at instrumentation *boundaries* (one store
put, one finished cell, one completed replay) rather than caching
global state at import time; injecting a fresh registry in a test
immediately redirects every subsystem.

Naming follows Prometheus conventions: ``repro_`` prefix, ``_total``
counters, base-unit (seconds/bytes) histograms and gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.telemetry.registry import MetricFamily, MetricsRegistry

#: Replay latency buckets (seconds): flash reads land around 50-500 us,
#: suspended-erase tails run into tens of milliseconds.
LATENCY_BUCKETS = (
    100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3,
    25e-3, 50e-3, 0.1, 0.25, 1.0,
)

#: Erase latency buckets (seconds): a full multi-pulse block erase is
#: single-digit milliseconds; shallow (ISPE) erases sit below that.
ERASE_LATENCY_BUCKETS = (
    1e-3, 2e-3, 3.5e-3, 5e-3, 7.5e-3, 10e-3, 15e-3, 25e-3, 50e-3,
)

#: Campaign cell wall-time buckets (seconds).
CELL_WALL_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Batch-kernel block-count buckets.
BATCH_SIZE_BUCKETS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)


def _registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    if registry is not None:
        return registry
    from repro.telemetry import get_default_registry

    return get_default_registry()


# --- campaign ----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignMetrics:
    planned: MetricFamily        # gauge
    cells: MetricFamily          # counter{outcome}
    pool_pending: MetricFamily   # gauge
    pool_inflight: MetricFamily  # gauge
    pool_workers: MetricFamily   # gauge
    cell_wall: MetricFamily      # histogram
    progress_fraction: MetricFamily  # gauge
    eta_seconds: MetricFamily    # gauge
    retries: MetricFamily        # counter{reason}
    timeouts: MetricFamily       # counter
    quarantined: MetricFamily    # counter
    pool_rebuilds: MetricFamily  # counter


def campaign_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> CampaignMetrics:
    reg = _registry(registry)
    return CampaignMetrics(
        planned=reg.gauge(
            "repro_campaign_cells_planned",
            "Cells in the campaign plan.",
        ),
        cells=reg.counter(
            "repro_campaign_cells_total",
            "Campaign cells by provenance: executed fresh, resumed "
            "from the store, or superseding an existing store record.",
            labels=("outcome",),
        ),
        pool_pending=reg.gauge(
            "repro_campaign_pool_pending",
            "Campaign cells to execute and not yet resolved.",
        ),
        pool_inflight=reg.gauge(
            "repro_campaign_pool_inflight",
            "Cells concurrently executing "
            "(min(workers, pending) estimate).",
        ),
        pool_workers=reg.gauge(
            "repro_campaign_pool_workers",
            "Configured worker count of the campaign.",
        ),
        cell_wall=reg.histogram(
            "repro_campaign_cell_wall_seconds",
            "Wall-clock execution time of one campaign cell.",
            buckets=CELL_WALL_BUCKETS,
        ),
        progress_fraction=reg.gauge(
            "repro_campaign_progress_fraction",
            "Completed fraction of the running campaign.",
        ),
        eta_seconds=reg.gauge(
            "repro_campaign_eta_seconds",
            "Projected seconds until the campaign finishes.",
        ),
        retries=reg.counter(
            "repro_campaign_retries_total",
            "Cell attempts re-queued after a recoverable failure, "
            "by reason (error, timeout, worker_death, persist_fault).",
            labels=("reason",),
        ),
        timeouts=reg.counter(
            "repro_campaign_timeouts_total",
            "Cell attempts killed for exceeding the wall-clock "
            "cell timeout.",
        ),
        quarantined=reg.counter(
            "repro_campaign_quarantined_total",
            "Poison cells quarantined after exhausting retries.",
        ),
        pool_rebuilds=reg.counter(
            "repro_campaign_pool_rebuilds_total",
            "Worker replacements after a worker died or was killed.",
        ),
    )


# --- result stores -----------------------------------------------------------


@dataclass(frozen=True)
class StoreMetrics:
    puts: MetricFamily        # counter
    gets: MetricFamily        # counter{outcome}
    bad_entries: MetricFamily  # counter{reason}
    superseded: MetricFamily  # counter
    compactions: MetricFamily  # counter
    reclaimed_bytes: MetricFamily  # counter
    gc_removed: MetricFamily  # counter
    data_bytes: MetricFamily  # gauge
    bytes_written: MetricFamily  # counter


def store_metrics(
    backend: str, registry: Optional[MetricsRegistry] = None
) -> "_BoundStoreMetrics":
    """Handles for one store backend (``sharded``)."""
    reg = _registry(registry)
    labels = ("backend",)
    families = StoreMetrics(
        puts=reg.counter(
            "repro_store_puts_total",
            "Finished cell reports persisted.",
            labels=labels,
        ),
        gets=reg.counter(
            "repro_store_gets_total",
            "Store lookups by outcome (hit or miss).",
            labels=("backend", "outcome"),
        ),
        bad_entries=reg.counter(
            "repro_store_bad_entries_total",
            "Gets that found an unusable record: stale cache version, "
            "torn report bytes, or a checksum mismatch.",
            labels=("backend", "reason"),
        ),
        superseded=reg.counter(
            "repro_store_superseded_total",
            "Puts that overwrote an existing record for the same key.",
            labels=labels,
        ),
        compactions=reg.counter(
            "repro_store_compactions_total",
            "Completed compaction passes.",
            labels=labels,
        ),
        reclaimed_bytes=reg.counter(
            "repro_store_reclaimed_bytes_total",
            "Bytes reclaimed by compaction.",
            labels=labels,
        ),
        gc_removed=reg.counter(
            "repro_store_gc_removed_total",
            "Entries removed by garbage collection or compaction.",
            labels=labels,
        ),
        data_bytes=reg.gauge(
            "repro_store_data_bytes",
            "Size of the store's database, pages in use and free.",
            labels=labels,
        ),
        bytes_written=reg.counter(
            "repro_store_bytes_written_total",
            "Report bytes written by puts.",
            labels=labels,
        ),
    )
    return _BoundStoreMetrics(families, backend)


class _BoundStoreMetrics:
    """StoreMetrics with the ``backend`` label pre-applied."""

    __slots__ = (
        "puts", "superseded", "compactions", "reclaimed_bytes",
        "gc_removed", "data_bytes", "bytes_written", "_gets",
        "_bad_entries", "_backend",
    )

    def __init__(self, families: StoreMetrics, backend: str):
        self.puts = families.puts.labels(backend=backend)
        self.superseded = families.superseded.labels(backend=backend)
        self.compactions = families.compactions.labels(backend=backend)
        self.reclaimed_bytes = families.reclaimed_bytes.labels(
            backend=backend
        )
        self.gc_removed = families.gc_removed.labels(backend=backend)
        self.data_bytes = families.data_bytes.labels(backend=backend)
        self.bytes_written = families.bytes_written.labels(
            backend=backend
        )
        self._gets = families.gets
        self._bad_entries = families.bad_entries
        self._backend = backend

    def get_outcome(self, hit: bool):
        return self._gets.labels(
            backend=self._backend, outcome="hit" if hit else "miss"
        )

    def bad_entry(self, reason: str):
        return self._bad_entries.labels(
            backend=self._backend, reason=reason
        )


# --- fault injection ---------------------------------------------------------


@dataclass(frozen=True)
class FaultMetrics:
    injected: MetricFamily  # counter{kind}


def fault_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> FaultMetrics:
    reg = _registry(registry)
    return FaultMetrics(
        injected=reg.counter(
            "repro_faults_injected_total",
            "Deterministic faults fired from the armed fault plan, "
            "by kind.",
            labels=("kind",),
        ),
    )


# --- SSD replay / FTL --------------------------------------------------------


@dataclass(frozen=True)
class SsdMetrics:
    replays: MetricFamily        # counter
    requests: MetricFamily       # counter{op}
    latency: MetricFamily        # histogram{op}
    suspensions: MetricFamily    # counter
    resumes: MetricFamily        # counter
    host_reads: MetricFamily     # counter
    host_writes: MetricFamily    # counter
    gc_page_moves: MetricFamily  # counter
    gc_jobs: MetricFamily        # counter
    waf: MetricFamily            # gauge


def ssd_metrics(registry: Optional[MetricsRegistry] = None) -> SsdMetrics:
    reg = _registry(registry)
    return SsdMetrics(
        replays=reg.counter(
            "repro_ssd_replays_total",
            "Completed timed trace replays (either engine).",
        ),
        requests=reg.counter(
            "repro_ssd_requests_total",
            "Host requests completed during timed replays.",
            labels=("op",),
        ),
        latency=reg.histogram(
            "repro_ssd_latency_seconds",
            "Host request latency during timed replays.",
            labels=("op",),
            buckets=LATENCY_BUCKETS,
        ),
        suspensions=reg.counter(
            "repro_ssd_erase_suspensions_total",
            "Erase operations suspended for a user read.",
        ),
        resumes=reg.counter(
            "repro_ssd_erase_resumes_total",
            "Suspended erase operations resumed to completion.",
        ),
        host_reads=reg.counter(
            "repro_ssd_host_reads_total",
            "Host page reads the FTL served (WAF denominator context).",
        ),
        host_writes=reg.counter(
            "repro_ssd_host_writes_total",
            "Host page writes the FTL accepted (WAF denominator).",
        ),
        gc_page_moves=reg.counter(
            "repro_ssd_gc_page_moves_total",
            "Valid pages relocated by garbage collection "
            "(WAF numerator component).",
        ),
        gc_jobs=reg.counter(
            "repro_ssd_gc_jobs_total",
            "Garbage-collection victim erasures performed.",
        ),
        waf=reg.gauge(
            "repro_ssd_waf",
            "Write amplification factor of the most recent replay.",
        ),
    )


@dataclass(frozen=True)
class FtlEraseMetrics:
    erases: MetricFamily   # counter
    pulses: MetricFamily   # counter
    latency: MetricFamily  # histogram


def ftl_erase_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> FtlEraseMetrics:
    reg = _registry(registry)
    return FtlEraseMetrics(
        erases=reg.counter(
            "repro_ssd_erases_total",
            "Block erases performed through the FTL.",
        ),
        pulses=reg.counter(
            "repro_ssd_erase_pulses_total",
            "Erase pulses issued across all FTL block erases.",
        ),
        latency=reg.histogram(
            "repro_ssd_erase_latency_seconds",
            "Per-erase latency through the FTL (scheme-shaped).",
            buckets=ERASE_LATENCY_BUCKETS,
        ),
    )


def observe_replay(report, stats, registry=None) -> None:
    """Ingest one finished replay's aggregates into telemetry.

    Called at the end of :meth:`repro.ssd.ssd.Ssd.run_trace` and
    :func:`repro.kernels.cell.run_trace_kernel` with the finished
    :class:`~repro.ssd.metrics.PerfReport` and the device's cumulative
    :class:`~repro.ftl.stats.FtlStats` — per-event hot loops stay
    untouched. FTL counters, erase counts and pulses included, are
    flushed as deltas since the previous flush of the same stats object,
    and the erase latencies it recorded since then go into the latency
    histogram, so a drive cycled through several measured windows never
    double-counts and erases done while preconditioning land in the
    first replay's flush.
    """
    import numpy as np

    metrics = ssd_metrics(registry)
    erase_metrics = ftl_erase_metrics(registry)
    metrics.replays.inc()
    for op, recorder in (("read", report.reads), ("write", report.writes)):
        values = recorder.values
        if len(values):
            metrics.requests.labels(op=op).inc(len(values))
            metrics.latency.labels(op=op).observe_many(
                np.asarray(values, dtype=float) / 1e6
            )
    metrics.suspensions.inc(report.erase_suspensions)
    # Every suspension in a *completed* replay was resumed and run to
    # completion (the scheduler's FIFO anti-starvation guarantees it),
    # so resumes == suspensions at this boundary on either engine.
    metrics.resumes.inc(report.erase_suspensions)
    flushed = getattr(stats, "_telemetry_flushed", None)
    if flushed is None:
        flushed = {}
        stats._telemetry_flushed = flushed
    for attr, counter in (
        ("host_reads", metrics.host_reads),
        ("host_writes", metrics.host_writes),
        ("gc_page_moves", metrics.gc_page_moves),
        ("gc_jobs", metrics.gc_jobs),
        ("erases", erase_metrics.erases),
        ("erase_pulses_total", erase_metrics.pulses),
    ):
        current = getattr(stats, attr)
        delta = current - flushed.get(attr, 0)
        if delta > 0:
            counter.inc(delta)
        flushed[attr] = current
    pending = stats.pending_erase_latencies_us
    if pending:
        erase_metrics.latency.observe_many(
            np.asarray(pending, dtype=float) / 1e6
        )
        pending.clear()
    metrics.waf.set(
        report.extra.get("waf", stats.write_amplification)
    )


# --- kernels -----------------------------------------------------------------


@dataclass(frozen=True)
class KernelMetrics:
    engine_cells: MetricFamily  # counter{site, engine}
    batch_blocks: MetricFamily  # histogram


def kernel_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> KernelMetrics:
    reg = _registry(registry)
    return KernelMetrics(
        engine_cells=reg.counter(
            "repro_kernel_engine_total",
            "Engine selections by site: grid-cell replays and "
            "lifetime runs, on the vectorized kernel or object path.",
            labels=("site", "engine"),
        ),
        batch_blocks=reg.histogram(
            "repro_kernel_batch_blocks",
            "Blocks per batch-kernel erase step.",
            buckets=BATCH_SIZE_BUCKETS,
        ),
    )
