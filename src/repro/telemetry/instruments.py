"""Shared metric families for the instrumented subsystems.

Every ``repro_*`` series is declared once, as one row of
:data:`FAMILIES`: the subsystem that feeds it, the attribute its
handle goes by, and its type, name, HELP text, labels and buckets.
One accessor per subsystem (:func:`campaign_metrics`,
:func:`store_metrics`, ...) returns a namespace of that subsystem's
handles, bound to a registry (the process-global default unless one is
injected). The first call for a registry declares the subsystem's
families there and keeps the handles on that registry, so later calls
are one dict lookup; call sites fetch handles at instrumentation
*boundaries* (one store put, one finished cell, one completed replay),
and injecting a fresh registry, or entering
:func:`~repro.telemetry.scoped_registry`, immediately redirects every
subsystem. Name validation, re-declaration conflicts and bucket checks
stay with :class:`~repro.telemetry.registry.MetricsRegistry`.

Naming follows Prometheus conventions: ``repro_`` prefix, ``_total``
counters, base-unit (seconds/bytes) histograms and gauges.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

from repro.telemetry import get_default_registry
from repro.telemetry.registry import MetricsRegistry

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


class Family(NamedTuple):
    """One declared family: which handle feeds it, and its schema."""

    subsystem: str
    attr: str
    kind: str
    name: str
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None


_BACKEND = ("backend",)

#: Every ``repro_*`` family the library feeds, grouped by subsystem.
FAMILIES = (
    Family("campaign", "planned", "gauge", "repro_campaign_cells_planned",
           "Cells in the campaign plan."),
    Family("campaign", "cells", "counter", "repro_campaign_cells_total",
           "Campaign cells by provenance: executed fresh, resumed "
           "from the store, or superseding an existing store record.",
           ("outcome",)),
    Family("campaign", "pool_pending", "gauge",
           "repro_campaign_pool_pending",
           "Campaign cells to execute and not yet resolved."),
    Family("campaign", "pool_inflight", "gauge",
           "repro_campaign_pool_inflight",
           "Cells concurrently executing "
           "(min(workers, pending) estimate)."),
    Family("campaign", "pool_workers", "gauge",
           "repro_campaign_pool_workers",
           "Configured worker count of the campaign."),
    Family("campaign", "cell_wall", "histogram",
           "repro_campaign_cell_wall_seconds",
           "Wall-clock execution time of one campaign cell.",
           buckets=CELL_WALL_BUCKETS),
    Family("campaign", "progress_fraction", "gauge",
           "repro_campaign_progress_fraction",
           "Completed fraction of the running campaign."),
    Family("campaign", "eta_seconds", "gauge", "repro_campaign_eta_seconds",
           "Projected seconds until the campaign finishes."),
    Family("campaign", "retries", "counter", "repro_campaign_retries_total",
           "Cell attempts re-queued after a recoverable failure, "
           "by reason (error, timeout, worker_death, persist_fault).",
           ("reason",)),
    Family("campaign", "timeouts", "counter",
           "repro_campaign_timeouts_total",
           "Cell attempts killed for exceeding the wall-clock "
           "cell timeout."),
    Family("campaign", "quarantined", "counter",
           "repro_campaign_quarantined_total",
           "Poison cells quarantined after exhausting retries."),
    Family("campaign", "pool_rebuilds", "counter",
           "repro_campaign_pool_rebuilds_total",
           "Worker replacements after a worker died or was killed."),
    Family("store", "puts", "counter", "repro_store_puts_total",
           "Finished cell reports persisted.", _BACKEND),
    Family("store", "gets", "counter", "repro_store_gets_total",
           "Store lookups by outcome (hit or miss).",
           ("backend", "outcome")),
    Family("store", "bad_entries", "counter",
           "repro_store_bad_entries_total",
           "Gets that found an unusable record: stale cache version, "
           "torn report bytes, or a checksum mismatch.",
           ("backend", "reason")),
    Family("store", "superseded", "counter", "repro_store_superseded_total",
           "Puts that overwrote an existing record for the same key.",
           _BACKEND),
    Family("store", "compactions", "counter",
           "repro_store_compactions_total",
           "Completed compaction passes.", _BACKEND),
    Family("store", "reclaimed_bytes", "counter",
           "repro_store_reclaimed_bytes_total",
           "Bytes reclaimed by compaction.", _BACKEND),
    Family("store", "gc_removed", "counter", "repro_store_gc_removed_total",
           "Entries removed by garbage collection or compaction.",
           _BACKEND),
    Family("store", "data_bytes", "gauge", "repro_store_data_bytes",
           "Size of the store's database, pages in use and free.",
           _BACKEND),
    Family("store", "bytes_written", "counter",
           "repro_store_bytes_written_total",
           "Report bytes written by puts.", _BACKEND),
    Family("faults", "injected", "counter", "repro_faults_injected_total",
           "Deterministic faults fired from the armed fault plan, "
           "by kind.", ("kind",)),
    Family("ssd", "replays", "counter", "repro_ssd_replays_total",
           "Completed timed trace replays (either engine)."),
    Family("ssd", "requests", "counter", "repro_ssd_requests_total",
           "Host requests completed during timed replays.", ("op",)),
    Family("ssd", "latency", "histogram", "repro_ssd_latency_seconds",
           "Host request latency during timed replays.", ("op",),
           LATENCY_BUCKETS),
    Family("ssd", "suspensions", "counter",
           "repro_ssd_erase_suspensions_total",
           "Erase operations suspended for a user read."),
    Family("ssd", "resumes", "counter", "repro_ssd_erase_resumes_total",
           "Suspended erase operations resumed to completion."),
    Family("ssd", "host_reads", "counter", "repro_ssd_host_reads_total",
           "Host page reads the FTL served (WAF denominator context)."),
    Family("ssd", "host_writes", "counter", "repro_ssd_host_writes_total",
           "Host page writes the FTL accepted (WAF denominator)."),
    Family("ssd", "gc_page_moves", "counter",
           "repro_ssd_gc_page_moves_total",
           "Valid pages relocated by garbage collection "
           "(WAF numerator component)."),
    Family("ssd", "gc_jobs", "counter", "repro_ssd_gc_jobs_total",
           "Garbage-collection victim erasures performed."),
    Family("ssd", "waf", "gauge", "repro_ssd_waf",
           "Write amplification factor of the most recent replay."),
    Family("ftl_erase", "erases", "counter", "repro_ssd_erases_total",
           "Block erases performed through the FTL."),
    Family("ftl_erase", "pulses", "counter", "repro_ssd_erase_pulses_total",
           "Erase pulses issued across all FTL block erases."),
    Family("ftl_erase", "latency", "histogram",
           "repro_ssd_erase_latency_seconds",
           "Per-erase latency through the FTL (scheme-shaped).",
           buckets=ERASE_LATENCY_BUCKETS),
    Family("kernel", "engine_cells", "counter", "repro_kernel_engine_total",
           "Engine selections by site: grid-cell replays and "
           "lifetime runs, on the vectorized kernel or object path.",
           ("site", "engine")),
    Family("kernel", "batch_blocks", "histogram",
           "repro_kernel_batch_blocks",
           "Blocks per batch-kernel erase step.",
           buckets=BATCH_SIZE_BUCKETS),
)


class _StoreHandles(SimpleNamespace):
    """Store handles for one ``backend``: families labeled by backend
    alone are its children; the two with a second label take it here."""

    def get_outcome(self, hit: bool):
        """The ``gets`` child of one outcome, resolved once per registry
        (a resume pass makes one get per job)."""
        outcomes = self.__dict__.setdefault("outcomes", {})
        child = outcomes.get(hit)
        if child is None:
            child = outcomes[hit] = self.gets(outcome="hit" if hit else "miss")
        return child

    def bad_entry(self, reason: str):
        return self.bad_entries(reason=reason)


#: Namespace type per subsystem; the default is a plain namespace.
_HANDLES = {"store": _StoreHandles}


def _bind(subsystem: str, registry: Optional[MetricsRegistry],
          **preset: str) -> SimpleNamespace:
    """``subsystem``'s handles on ``registry`` (default: the process
    registry), built from :data:`FAMILIES` on first use and kept there.

    ``preset`` label values are applied up front: a family labeled by
    them alone becomes that child, one with more labels a partial of
    ``labels``.
    """
    registry = registry if registry is not None else get_default_registry()
    key = (subsystem, *preset.values())
    handles = registry.bindings.get(key)
    if handles is None:
        handles = _HANDLES.get(subsystem, SimpleNamespace)()
        for row in FAMILIES:
            if row.subsystem != subsystem:
                continue
            family = registry.declare(
                row.name, row.help, row.kind, row.labels, row.buckets
            )
            if preset and row.labels == tuple(preset):
                family = family.labels(**preset)
            elif preset:
                family = partial(family.labels, **preset)
            setattr(handles, row.attr, family)
        # Two racing first calls both build (declare is idempotent);
        # setdefault keeps one namespace for both.
        handles = registry.bindings.setdefault(key, handles)
    return handles


def campaign_metrics(registry: Optional[MetricsRegistry] = None):
    return _bind("campaign", registry)


def store_metrics(backend: str, registry: Optional[MetricsRegistry] = None):
    """Handles for one store backend (``sharded``)."""
    return _bind("store", registry, backend=backend)


def fault_metrics(registry: Optional[MetricsRegistry] = None):
    return _bind("faults", registry)


def ssd_metrics(registry: Optional[MetricsRegistry] = None):
    return _bind("ssd", registry)


def ftl_erase_metrics(registry: Optional[MetricsRegistry] = None):
    return _bind("ftl_erase", registry)


def kernel_metrics(registry: Optional[MetricsRegistry] = None):
    return _bind("kernel", registry)


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
