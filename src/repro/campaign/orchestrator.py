"""Campaign orchestrator: supervised execution with resume.

:class:`CampaignOrchestrator` executes a :class:`CampaignSpec` against
a result store:

1. **Plan** — the spec's cells become ``GridRunner.plan``-identical
   :class:`CellJob` objects (shared fingerprints, shared store
   entries).
2. **Resume** — every cell whose fingerprint the store can retrieve is
   loaded, not re-executed; a repeated job shares its first
   occurrence's result. A campaign killed at any point restarts from
   the store alone.
3. **Supervise** — pending cells run under a
   :class:`~repro.campaign.supervisor.CellSupervisor`: in this process
   with one worker and no cell timeout, otherwise on worker processes;
   wall-clock timeouts, retry with seeded backoff, worker replacement
   when one dies, quarantine for poison cells — a flaky cell never
   aborts the campaign (``on_poison="fail"`` opts back into aborting).
4. **Stream** — each finished report is put to the store the moment
   it arrives, so an interruption loses at most the in-flight cells;
   a put that raises :class:`~repro.errors.InjectedFault` (chaos
   testing) re-queues its cell instead of crashing.
5. **Report** — a progress callback receives cells done / total,
   throughput, and a projected finish throughout the run.

Steps 2–4 are :class:`~repro.campaign.supervisor.JobRun`, the loop
``GridRunner.execute_jobs`` runs too. Determinism: cells are pure
functions of their jobs and the grid is assembled in job order, so an
orchestrated (parallel, resumed, even retried) campaign is
bit-identical to a fresh serial
:class:`~repro.harness.runner.GridRunner` run of the same spec —
pinned by tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import open_store
from repro.campaign.supervisor import CellOutcome, JobRun, RetryPolicy
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.harness.grid import EvaluationGrid
from repro.harness.runner import grid_from_jobs
from repro.harness.store import ResultStore
from repro.telemetry.instruments import campaign_metrics


@dataclass(frozen=True)
class CampaignProgress:
    """One progress snapshot, handed to the ``progress`` callback."""

    total: int
    executed: int
    resumed: int
    elapsed_s: float

    @property
    def done(self) -> int:
        return self.executed + self.resumed

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def cells_per_s(self) -> Optional[float]:
        """Execution throughput (resumed cells load instantly and are
        excluded — they would inflate the rate the ETA projects with)."""
        if self.executed == 0 or self.elapsed_s <= 0:
            return None
        return self.executed / self.elapsed_s

    @property
    def eta_s(self) -> Optional[float]:
        """Projected seconds to finish, None until a rate exists."""
        rate = self.cells_per_s
        if rate is None or not rate:
            return None
        return self.remaining / rate

    def format(self) -> str:
        """One status line: done/total, %, rate, ETA, provenance."""
        parts = [
            f"{self.done}/{self.total} cells ({self.fraction:.1%})",
        ]
        rate = self.cells_per_s
        if rate is not None:
            parts.append(f"{rate:.2f} cells/s")
        eta = self.eta_s
        if eta is not None and self.remaining:
            parts.append(f"ETA {format_duration(eta)}")
        parts.append(f"executed {self.executed}, resumed {self.resumed}")
        return " · ".join(parts)


def format_duration(seconds: float) -> str:
    """``30s``, ``1.5m``, ``2.0h`` or ``2.0d`` (ETAs, store-entry ages)."""
    for unit, span in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= span:
            return f"{seconds / span:.1f}{unit}"
    return f"{seconds:.0f}s"


def _family_counts(
    jobs: Iterable[Any], done: Iterable[bool]
) -> Dict[str, Dict[str, int]]:
    """``{family: {"total": n, "done": m}}`` over jobs and their done flags."""
    counts: Dict[str, Dict[str, int]] = {}
    for job, finished in zip(jobs, done):
        entry = counts.setdefault(job.family, {"total": 0, "done": 0})
        entry["total"] += 1
        entry["done"] += bool(finished)
    return counts


@dataclass(frozen=True)
class CampaignStats:
    """Where the campaign's cells came from, and how long it took.

    ``resumed`` counts cells served without executing: store hits and
    repeats of an earlier job. The supervision counters (``retried``
    .. ``interrupted``) stay zero on a healthy run.
    """

    total: int
    executed: int
    resumed: int
    wall_s: float
    retried: int = 0
    timeouts: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    interrupted: int = 0


@dataclass(frozen=True)
class CampaignResult:
    """Everything one orchestrated campaign produced.

    ``reports[i]`` is ``None`` for a quarantined or interrupted cell;
    the grid holds the *grid cells* that finished (lifetime jobs do
    not live on a (scheme, pec, workload) grid), and ``comparisons``
    the assembled :class:`~repro.lifetime.comparison.SchemeComparison`
    of every lifetime member whose curves all completed.
    ``quarantined`` carries the quarantine records written this run.
    """

    spec: Any
    jobs: Tuple[Any, ...]
    reports: Tuple[Optional[Any], ...]
    grid: EvaluationGrid
    stats: CampaignStats
    quarantined: Tuple[Dict[str, Any], ...] = ()
    comparisons: Tuple[Any, ...] = ()

    @property
    def complete(self) -> bool:
        return all(report is not None for report in self.reports)

    def family_counts(self) -> Dict[str, Dict[str, int]]:
        """``{family: {"total": n, "done": m}}`` across the job list."""
        return _family_counts(
            self.jobs, (report is not None for report in self.reports)
        )


_ProgressFn = Callable[[CampaignProgress], None]
_CellFn = Callable[[int, Any, Any], None]


class CampaignOrchestrator:
    """Runs one campaign spec against a store under supervision."""

    def __init__(
        self,
        spec: Union[CampaignSpec, Any],
        store: Union[ResultStore, str, Path],
        process_workers: int = 1,
        thread_workers: int = 1,
        progress: Optional[_ProgressFn] = None,
        progress_interval_s: float = 1.0,
        on_cell: Optional[_CellFn] = None,
        cell_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        on_poison: str = "skip",
        fault_plan: Optional[FaultPlan] = None,
        shutdown: Optional[Any] = None,
    ):
        """``store`` is a :class:`ResultStore` or a path (opened by
        :func:`~repro.campaign.store.open_store`, as ``GridRunner``'s
        ``cache`` is). ``process_workers`` is the worker count: one
        runs cells in this process (unless ``cell_timeout_s`` needs a
        killable worker), more run them on that many worker processes.
        ``thread_workers`` is kept for old callers and must be 1.
        ``progress`` is called with a
        :class:`CampaignProgress` at start, at most every
        ``progress_interval_s`` seconds while cells stream in, and at
        the end. ``on_cell(index, job, report)`` fires after each
        *executed* cell is persisted — an exception from it aborts the
        run (which is exactly how the interrupted-resume tests and the
        CI kill step simulate a crash; everything already persisted
        resumes).

        Supervision: ``cell_timeout_s`` bounds each attempt's wall
        clock; a failing cell is retried up to ``max_retries`` times
        with seeded exponential backoff, then quarantined — skipped
        with a record in the store's ``quarantine`` table
        (``on_poison="skip"``) or fatal
        (``on_poison="fail"`` →
        :class:`~repro.errors.PoisonCellError`).
        ``fault_plan`` arms deterministic chaos (worker kills, slow
        cells; put faults must be armed on the store itself).
        ``shutdown`` is a ``threading.Event``-like object: once set,
        no new cells are admitted and in-flight ones drain.
        """
        if thread_workers != 1:
            raise ConfigError(
                f"thread_workers={thread_workers}: campaign cells run on "
                "process workers; use process_workers instead"
            )
        if process_workers < 1:
            raise ConfigError("campaign worker counts must be >= 1")
        if on_poison not in ("skip", "fail"):
            raise ConfigError(
                f"on_poison must be 'skip' or 'fail', got {on_poison!r}"
            )
        self.spec = spec
        self.store = open_store(store)
        self.process_workers = process_workers
        self.progress = progress
        self.progress_interval_s = progress_interval_s
        self.on_cell = on_cell
        self.cell_timeout_s = cell_timeout_s
        self.max_retries = max_retries
        self.on_poison = on_poison
        self.fault_plan = fault_plan or FaultPlan()
        self.shutdown = shutdown

    # --- planning helpers ---------------------------------------------------

    def plan(self) -> List[Any]:
        """The campaign's jobs (``GridRunner.plan``-identical for grid
        cells; lifetime members emit :class:`LifetimeJob` orders)."""
        return self.spec.jobs()

    def family_status(self) -> Dict[str, Dict[str, int]]:
        """Per-family resume counts of the store (``campaign status``),
        in one pass and without executing anything."""
        jobs = self.plan()
        return _family_counts(
            jobs, (job.fingerprint in self.store for job in jobs)
        )

    def _member_ranges(self) -> List[Tuple[Any, int, int]]:
        """``(member, start, stop)`` job slices; single-family specs
        are their own sole member."""
        ranges = getattr(self.spec, "member_ranges", None)
        if ranges is not None:
            return ranges()
        return [(self.spec, 0, self.spec.size)]

    # --- execution ----------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute the campaign; resume, supervise, stream, assemble."""
        start = time.monotonic()
        jobs = self.plan()
        run = JobRun(jobs, self.store)
        workers = self.process_workers

        metrics = campaign_metrics()
        metrics.planned.set(len(jobs))
        # Pre-create the outcome series at zero so a scrape racing the
        # first completed cell still sees every family.
        for outcome in ("executed", "resumed", "superseded"):
            metrics.cells.labels(outcome=outcome).inc(0)
        for reason in ("error", "timeout", "worker_death", "persist_fault"):
            metrics.retries.labels(reason=reason).inc(0)
        metrics.timeouts.inc(0)
        metrics.quarantined.inc(0)
        metrics.pool_rebuilds.inc(0)
        if run.resumed:
            metrics.cells.labels(outcome="resumed").inc(run.resumed)
        metrics.pool_workers.set(workers)
        unresolved = len(run.pending)

        def update_pool_gauges() -> None:
            metrics.pool_pending.set(unresolved)
            metrics.pool_inflight.set(min(workers, unresolved))

        last_emit = 0.0

        def emit(force: bool = False) -> None:
            nonlocal last_emit
            now = time.monotonic()
            snapshot = CampaignProgress(
                total=len(jobs),
                executed=run.executed,
                resumed=run.resumed,
                elapsed_s=now - start,
            )
            # Telemetry gauges track every snapshot, including the
            # final one — the callback stays throttled below.
            metrics.progress_fraction.set(snapshot.fraction)
            eta = snapshot.eta_s
            if eta is not None:
                metrics.eta_seconds.set(eta)
            elif snapshot.remaining == 0:
                metrics.eta_seconds.set(0.0)
            if self.progress is None:
                return
            if not force and now - last_emit < self.progress_interval_s:
                return
            last_emit = now
            self.progress(snapshot)

        quarantined_records: List[Dict[str, Any]] = []

        def on_outcome(outcome: CellOutcome, superseding: bool) -> None:
            nonlocal unresolved
            unresolved -= 1
            update_pool_gauges()
            job = outcome.job
            if outcome.kind == "done":
                metrics.cell_wall.observe(outcome.wall_s)
                metrics.cells.labels(outcome="executed").inc()
                if superseding:
                    metrics.cells.labels(outcome="superseded").inc()
                emit()
                if self.on_cell is not None:
                    self.on_cell(outcome.index, job, outcome.report)
            elif outcome.kind == "quarantined":
                record = self.store.quarantine(
                    key=job.fingerprint,
                    index=outcome.index,
                    attempts=outcome.attempts,
                    reason=outcome.reason,
                    error=outcome.error,
                    meta=job.store_meta(),
                )
                quarantined_records.append(record)
                emit()
                if self.on_poison == "fail":
                    raise outcome.poison("quarantined") from outcome.cause

        update_pool_gauges()
        emit(force=True)
        reports = run.execute(
            RetryPolicy(max_retries=self.max_retries, seed=self.spec.seed),
            on_outcome=on_outcome,
            workers=workers,
            cell_timeout_s=self.cell_timeout_s,
            fault_plan=self.fault_plan,
            shutdown=self.shutdown,
        )
        emit(force=True)

        finished = [
            (job, report)
            for job, report in zip(jobs, reports)
            if report is not None
            and job.family == "cell"
        ]
        grid = grid_from_jobs(
            [job for job, _ in finished],
            [report for _, report in finished],
        )
        # Lifetime members whose curves all completed assemble into
        # SchemeComparisons, one per member, in member order.
        comparisons = []
        for member, begin, end in self._member_ranges():
            if getattr(member, "family", "cell") != "lifetime":
                continue
            curves = reports[begin:end]
            if all(curve is not None for curve in curves):
                comparisons.append(member.comparison(curves))
        return CampaignResult(
            spec=self.spec,
            jobs=tuple(jobs),
            reports=tuple(reports),
            grid=grid,
            stats=CampaignStats(
                total=len(jobs),
                executed=run.executed,
                resumed=run.resumed,
                wall_s=time.monotonic() - start,
                **run.stats,
            ),
            quarantined=tuple(quarantined_records),
            comparisons=tuple(comparisons),
        )


def run_campaign(
    spec: Union[CampaignSpec, Any],
    store: Union[ResultStore, str, Path],
    **options: Any,
) -> CampaignResult:
    """One-call façade: ``CampaignOrchestrator(spec, store,
    **options).run()``."""
    return CampaignOrchestrator(spec, store, **options).run()
