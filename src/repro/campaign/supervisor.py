"""Cell supervision and the one execution loop.

:class:`CellSupervisor` runs jobs and treats every failure mode as an
*event* with a recovery policy, where a pool would abort its whole
``map``:

* a cell raising → retried with exponential backoff and deterministic
  jitter (seeded through :func:`repro.rng.derive`, so two runs of a
  flaky campaign schedule identical retries);
* a cell exceeding the wall-clock timeout → its worker process is
  SIGKILLed, a replacement worker is spawned, the cell is retried;
* a worker dying outright (``os._exit``, OOM-kill, segfault) → the
  worker is replaced and the in-flight cell retried;
* a cell exhausting its budget → returned as ``quarantined`` so the
  campaign records it and *finishes* instead of aborting.

One worker kind: with one worker and no ``cell_timeout_s`` each
attempt runs in the calling thread, and otherwise on
:class:`ProcessWorker` processes, since a timeout needs a worker it
can kill. Retry, requeue, quarantine and shutdown behave the same on
both. In-process attempts keep every span and metric recorded inside
a cell in this process; the cell kernel is pure Python, so a thread
would only add overhead.

:class:`JobRun` is the one resume → dedupe → run → persist loop over a
supervisor, shared by ``GridRunner.execute_jobs`` (retries off; the
first failure ends the call) and ``CampaignOrchestrator.run``
(retries, quarantine, progress). A put that raises
:class:`~repro.errors.InjectedFault` is a cell failure too, fed back
with :meth:`CellSupervisor.requeue`; a shutdown event stops admission
while in-flight cells drain.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import os
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.errors import ConfigError, InjectedFault, PoisonCellError
from repro.faults import FaultPlan
from repro.faults.plan import KILL_WORKER_EXIT
from repro.harness.runner import execute_job
from repro.harness.store import ResultStore
from repro.rng import derive
from repro.telemetry import get_default_registry, scoped_registry
from repro.telemetry.instruments import campaign_metrics, fault_metrics

#: The supervision counters of :attr:`CellSupervisor.stats`.
SUPERVISION_COUNTERS = (
    "retried", "timeouts", "quarantined", "pool_rebuilds", "interrupted",
)


# --- supervised workers ------------------------------------------------------


class WorkerEvent(NamedTuple):
    """One message from a worker process to its supervisor.

    ``kind`` is ``"result"`` (payload = the task's return value),
    ``"error"`` (payload = ``(exc_type_name, message, traceback_text)``)
    or ``"died"`` (the worker process exited without reporting;
    payload = its exit code). ``task_id`` is ``-1`` for a worker that
    died idle.
    """

    kind: str
    worker: str
    task_id: int
    payload: Any


def _error_payload(exc: BaseException) -> Tuple[str, str, str]:
    return (type(exc).__name__, str(exc), traceback.format_exc())


def _process_worker_main(fn: Callable[[Any], Any], conn) -> None:
    """Child-process loop: recv ``(task_id, task)``, send results back.

    A ``None`` message is the clean-shutdown sentinel. Exceptions are
    reduced to strings — a failing task must never take the reporting
    channel down with an unpicklable exception object.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, task = message
        try:
            result = fn(task)
        except BaseException as exc:
            try:
                conn.send(("error", task_id, _error_payload(exc)))
            except (OSError, ValueError):
                break
        else:
            conn.send(("result", task_id, result))
    conn.close()


class ProcessWorker:
    """One killable OS-process worker reporting onto a shared queue.

    Unlike a pool, death is an *event*, not an abort: if the child
    exits without reporting — ``os._exit``, SIGKILL, a segfault — the
    reader thread turns the broken pipe into a ``died`` event carrying
    the in-flight task id, and the supervisor replaces the worker.
    ``fn`` and tasks must be picklable (module-level function).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Any], Any],
        events: "queue.Queue[WorkerEvent]",
    ):
        ctx = mp.get_context()
        self.name = name
        self.events = events
        self.task_id: Optional[int] = None
        self._closed = False
        parent, child = ctx.Pipe()
        self._conn = parent
        self._proc = ctx.Process(
            target=_process_worker_main,
            args=(fn, child),
            name=name,
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._reader = threading.Thread(
            target=self._read, name=f"{name}-reader", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        while True:
            try:
                kind, task_id, payload = self._conn.recv()
            except (EOFError, OSError):
                break
            self.task_id = None
            self.events.put(WorkerEvent(kind, self.name, task_id, payload))
        in_flight = self.task_id
        self.task_id = None
        if not self._closed:
            self._proc.join(timeout=5.0)
            self.events.put(
                WorkerEvent(
                    "died",
                    self.name,
                    -1 if in_flight is None else in_flight,
                    self._proc.exitcode,
                )
            )

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    def submit(self, task_id: int, task: Any) -> None:
        """Hand the worker one task; raises ``OSError`` if it is dead
        (the pending ``died`` event still reports the prior task)."""
        self.task_id = task_id
        try:
            self._conn.send((task_id, task))
        except (OSError, ValueError):
            self.task_id = None
            raise OSError(f"worker {self.name} is not accepting tasks")

    def kill(self) -> None:
        """SIGKILL the child — the timeout enforcement primitive."""
        self._proc.kill()

    def close(self) -> None:
        """Clean shutdown: sentinel, bounded join, then force-kill."""
        self._closed = True
        try:
            self._conn.send(None)
        except (OSError, ValueError):
            pass
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=5.0)
        self._conn.close()


# --- supervision -------------------------------------------------------------


def _run_cell_task(task: Tuple[int, int, bool, Any, FaultPlan]):
    """Run one attempt of a job, with fault evaluation.

    Module-level so process workers can pickle it; the fault plan's
    cell predicates are pure functions of ``(cell, attempt)``, so a
    forked worker needs no shared state to evaluate them.

    In a worker process (``in_child``) the job runs under a fresh
    telemetry registry whose snapshot comes back as the fourth tuple
    element, so metrics recorded in the child reach the coordinator.
    An in-process attempt records into the caller's registry and
    returns ``None`` there.
    """
    index, attempt, in_child, job, plan = task
    if plan:
        delay, kill = plan.cell_fault(index, attempt)
        if delay > 0:
            time.sleep(delay)
        if kill:
            if in_child:
                os._exit(KILL_WORKER_EXIT)  # a real, unreportable death
            raise InjectedFault(
                f"injected kill_worker at cell {index} attempt {attempt}",
                kind="kill_worker",
            )
    begin = time.perf_counter()
    if not in_child:
        return index, execute_job(job), time.perf_counter() - begin, None
    with scoped_registry() as registry:
        report = execute_job(job)
    snapshot = registry.snapshot()
    return index, report, time.perf_counter() - begin, snapshot


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    Attempt ``n`` (1-based) failing waits
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor in
    ``[0.5, 1.5)`` derived from ``(seed, fingerprint, n)`` — spread
    enough to de-thunder retries, reproducible enough to replay.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff durations must be >= 0")

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        base = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        jitter = 0.5 + (
            derive(self.seed, "backoff", fingerprint, attempt) % 1000
        ) / 1000.0
        return base * jitter


@dataclass(frozen=True)
class CellOutcome:
    """One resolved cell, however it resolved.

    ``kind`` is ``"done"`` (report attached), ``"quarantined"`` (the
    cell exhausted its budget; ``reason``/``error`` say why) or
    ``"interrupted"`` (shutdown before the cell could run). ``cause``
    is the exception of a last attempt that failed in this process
    (``None`` after a timeout or a worker-process failure).
    """

    index: int
    job: Any
    kind: str
    report: Any = None
    wall_s: float = 0.0
    attempts: int = 0
    reason: str = ""
    error: str = ""
    cause: Optional[BaseException] = None

    def poison(self, verb: str) -> PoisonCellError:
        """The error that ends a run at this unfinished cell."""
        return PoisonCellError(
            f"cell {self.index} ({self.job.describe()}) {verb} after "
            f"{self.attempts} attempts: {self.reason}: {self.error}",
            index=self.index,
            fingerprint=self.job.fingerprint,
        )


class _Cell:
    __slots__ = ("job", "attempts")

    def __init__(self, job: Any):
        self.job = job
        self.attempts = 0


class CellSupervisor:
    """Supervise cell execution in this thread or on worker processes.

    Usage: ``submit`` every cell, then drain ``next_outcome()`` until
    it returns ``None``. With one worker and no ``cell_timeout_s``,
    ``next_outcome()`` runs at most one attempt per call in the calling
    thread, so its caller handles a finished cell before the next one
    starts; only ``Exception`` counts as a failed attempt there, so
    Ctrl-C still stops the run. Otherwise up to ``workers`` worker
    processes run attempts. Thread-safety: ``submit``/``next_outcome``/
    ``requeue`` are called from one thread only; the shared event
    queue is the sole cross-thread channel.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        cell_timeout_s: Optional[float] = None,
        workers: int = 1,
        fault_plan: Optional[FaultPlan] = None,
        shutdown: Optional[Any] = None,
    ):
        if workers < 1:
            raise ConfigError(f"need at least 1 worker, got {workers}")
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive")
        self.policy = policy or RetryPolicy()
        self.cell_timeout_s = cell_timeout_s
        self.workers = workers
        self.in_process = workers == 1 and cell_timeout_s is None
        self.plan = fault_plan or FaultPlan()
        self.shutdown = shutdown
        self.events: "queue.Queue[WorkerEvent]" = queue.Queue()
        self._cells: Dict[int, _Cell] = {}
        self._pending: Deque[int] = deque()
        self._retry_heap: List[Tuple[float, int, int]] = []
        self._inflight: Dict[int, Tuple[int, str, Optional[float]]] = {}
        self._workers: Dict[str, ProcessWorker] = {}
        self._idle: List[ProcessWorker] = []
        self._ready: Deque[CellOutcome] = deque()
        self._task_ids = itertools.count()
        self._worker_seq = itertools.count()
        self._outstanding = 0
        self.stats = dict.fromkeys(SUPERVISION_COUNTERS, 0)

    # --- public API ---------------------------------------------------------

    def submit(self, index: int, job: Any) -> None:
        """Enqueue one job (grid cell or lifetime curve)."""
        self._cells[index] = _Cell(job)
        self._pending.append(index)
        self._outstanding += 1

    def requeue(
        self,
        index: int,
        reason: str,
        error: str = "",
        cause: Optional[BaseException] = None,
    ) -> None:
        """Feed back a persist-stage failure as a cell failure.

        Called when ``store.put`` raised an :class:`InjectedFault`
        *after* the cell itself succeeded — the result is not durable,
        so the cell runs again (or is quarantined, out of budget).
        """
        self._outstanding += 1
        self._handle_failure(index, reason, error, cause)

    def next_outcome(self) -> Optional[CellOutcome]:
        """Block until one cell resolves; ``None`` when all have."""
        while True:
            if self._ready:
                self._outstanding -= 1
                return self._ready.popleft()
            if self._outstanding == 0:
                return None
            if self._shutting_down():
                # Pending cells resolve as interrupted now, retries too
                # once nothing is in flight; in-flight cells drain.
                self._interrupt_pending()
                if self._ready or not self._inflight:
                    continue
            else:
                self._dispatch()
                if self._ready or (self.in_process and self._pending):
                    continue
            if self.in_process:
                # Every cell left is waiting out a retry backoff.
                time.sleep(self._wait_s())
                continue
            try:
                event = self.events.get(timeout=self._wait_s())
            except queue.Empty:
                self._expire_timeouts()
                continue
            self._handle_event(event)

    def close(self) -> None:
        """Tear every worker down (clean sentinel, bounded join)."""
        for worker in list(self._workers.values()):
            worker.close()
        self._workers.clear()
        self._idle = []

    # --- scheduling ---------------------------------------------------------

    def _shutting_down(self) -> bool:
        return self.shutdown is not None and self.shutdown.is_set()

    def _now(self) -> float:
        return time.monotonic()

    def _wait_s(self) -> float:
        horizon = self._now() + 0.5
        for _, _, deadline in self._inflight.values():
            if deadline is not None:
                horizon = min(horizon, deadline)
        if self._retry_heap:
            horizon = min(horizon, self._retry_heap[0][0])
        return max(0.01, horizon - self._now())

    def _dispatch(self) -> None:
        now = self._now()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            self._pending.append(heapq.heappop(self._retry_heap)[2])
        if self.in_process:
            if self._pending:
                self._start_attempt(self._pending.popleft(), None)
            return
        while self._pending:
            worker = self._checkout_worker()
            if worker is None:
                break
            self._start_attempt(self._pending.popleft(), worker)

    def _checkout_worker(self) -> Optional[ProcessWorker]:
        while self._idle:
            worker = self._idle.pop()
            if worker.alive:
                return worker
            self._replace_worker(worker, spawn=False)
        if len(self._workers) < self.workers:
            return self._spawn_worker()
        return None

    def _spawn_worker(self) -> ProcessWorker:
        name = f"process-worker-{next(self._worker_seq)}"
        worker = ProcessWorker(name, _run_cell_task, self.events)
        self._workers[name] = worker
        return worker

    def _replace_worker(
        self, worker: ProcessWorker, spawn: bool = True
    ) -> None:
        """Drop a dead or killed worker; optionally spawn its successor."""
        if self._workers.pop(worker.name, None) is None:
            return
        self.stats["pool_rebuilds"] += 1
        campaign_metrics().pool_rebuilds.inc()
        if spawn:
            self._idle.append(self._spawn_worker())

    def _start_attempt(
        self, index: int, worker: Optional[ProcessWorker]
    ) -> None:
        """Run one attempt in this thread (``worker=None``) or hand it
        to a worker process."""
        cell = self._cells[index]
        cell.attempts += 1
        if self.plan:
            # Cell faults are recorded here, in the parent — a worker
            # that os._exit()s cannot report its own injection.
            delay, kill = self.plan.cell_fault(index, cell.attempts)
            metrics = fault_metrics()
            if delay > 0:
                metrics.injected.labels(kind="slow_cell").inc()
            if kill:
                metrics.injected.labels(kind="kill_worker").inc()
        task = (index, cell.attempts, worker is not None, cell.job, self.plan)
        if worker is None:
            try:
                _, report, wall_s, _ = _run_cell_task(task)
            except Exception as exc:  # not BaseException: Ctrl-C stops
                self._handle_failure(
                    index, "error", f"{type(exc).__name__}: {exc}", exc
                )
            else:
                self._finish(index, report, wall_s)
            return
        task_id = next(self._task_ids)
        try:
            worker.submit(task_id, task)
        except OSError:
            # Died while idle; its queued "died" event will be stale.
            cell.attempts -= 1
            self._replace_worker(worker)
            self._pending.append(index)
            return
        deadline = (
            self._now() + self.cell_timeout_s
            if self.cell_timeout_s is not None
            else None
        )
        self._inflight[task_id] = (index, worker.name, deadline)

    def _expire_timeouts(self) -> None:
        now = self._now()
        expired = [
            (task_id, index, name)
            for task_id, (index, name, deadline) in self._inflight.items()
            if deadline is not None and deadline <= now
        ]
        for task_id, index, name in expired:
            del self._inflight[task_id]
            self.stats["timeouts"] += 1
            campaign_metrics().timeouts.inc()
            worker = self._workers.get(name)
            if worker is not None:
                worker.kill()
                self._replace_worker(worker)
            self._handle_failure(
                index,
                "timeout",
                f"cell {index} exceeded {self.cell_timeout_s:.3f}s",
            )

    def _interrupt_pending(self) -> None:
        drained = list(self._pending)
        self._pending.clear()
        if not self._inflight:
            drained.extend(index for _, _, index in self._retry_heap)
            self._retry_heap.clear()
        for index in drained:
            cell = self._cells[index]
            self.stats["interrupted"] += 1
            self._ready.append(
                CellOutcome(
                    index=index,
                    job=cell.job,
                    kind="interrupted",
                    attempts=cell.attempts,
                    reason="shutdown",
                )
            )

    # --- event handling -----------------------------------------------------

    def _handle_event(self, event: WorkerEvent) -> None:
        if event.kind == "died":
            worker = self._workers.get(event.worker)
            if worker is None:
                return  # we killed it deliberately; already handled
            self._idle = [w for w in self._idle if w is not worker]
            self._replace_worker(worker)
            entry = self._inflight.pop(event.task_id, None) if (
                event.task_id >= 0
            ) else None
            if entry is not None:
                self._handle_failure(
                    entry[0],
                    "worker_death",
                    f"worker {event.worker} died "
                    f"(exit code {event.payload})",
                )
            return
        entry = self._inflight.pop(event.task_id, None)
        if entry is None:
            return  # late report from a worker killed at its timeout
        index = entry[0]
        worker = self._workers.get(event.worker)
        if worker is not None and worker.alive:
            self._idle.append(worker)
        if event.kind == "result":
            _, report, wall_s, snapshot = event.payload
            # Worker processes ship their telemetry home with the
            # result; merge before the outcome becomes visible.
            get_default_registry().merge_snapshot(snapshot)
            self._finish(index, report, wall_s)
            return
        exc_type, message, _trace = event.payload
        self._handle_failure(index, "error", f"{exc_type}: {message}")

    def _finish(self, index: int, report: Any, wall_s: float) -> None:
        cell = self._cells[index]
        self._ready.append(
            CellOutcome(
                index=index,
                job=cell.job,
                kind="done",
                report=report,
                wall_s=wall_s,
                attempts=cell.attempts,
            )
        )

    def _handle_failure(
        self,
        index: int,
        reason: str,
        error: str,
        cause: Optional[BaseException] = None,
    ) -> None:
        cell = self._cells[index]
        if cell.attempts <= self.policy.max_retries:
            self.stats["retried"] += 1
            campaign_metrics().retries.labels(reason=reason).inc()
            delay = self.policy.backoff_s(
                cell.job.fingerprint, max(1, cell.attempts)
            )
            heapq.heappush(
                self._retry_heap, (self._now() + delay, index, index)
            )
            return
        self.stats["quarantined"] += 1
        campaign_metrics().quarantined.inc()
        self._ready.append(
            CellOutcome(
                index=index,
                job=cell.job,
                kind="quarantined",
                attempts=cell.attempts,
                reason=reason,
                error=error,
                cause=cause,
            )
        )


# --- the execution loop ------------------------------------------------------


_OutcomeFn = Callable[[CellOutcome, bool], None]


class JobRun:
    """One job list through resume → dedupe → run → persist.

    Construction is the resume pass: each distinct fingerprint is
    looked up once in ``store`` (when there is one); what it cannot
    serve becomes :attr:`pending`, and every repeat of a fingerprint
    shares its first occurrence's result. :meth:`execute` runs the
    pending jobs on a :class:`CellSupervisor` and puts each result the
    moment it arrives, so an interruption loses at most the in-flight
    cells. The one loop behind ``GridRunner.execute_jobs`` and
    ``CampaignOrchestrator.run``.
    """

    def __init__(self, jobs: Sequence[Any], store: Optional[ResultStore]):
        self.jobs = list(jobs)
        self.store = store
        self.fingerprints = [job.fingerprint for job in self.jobs]
        self.reports: List[Optional[Any]] = [None] * len(self.jobs)
        self.pending: List[int] = []
        first: Dict[str, int] = {}
        #: Per job, the index of the first job with its fingerprint.
        self._source = [
            first.setdefault(fingerprint, index)
            for index, fingerprint in enumerate(self.fingerprints)
        ]
        for index in first.values():
            cached = (
                None if store is None
                else store.get(self.fingerprints[index])
            )
            if cached is None:
                self.pending.append(index)
            else:
                self.reports[index] = cached
        #: Jobs served without executing: store hits and repeats.
        self.resumed = len(self.jobs) - len(self.pending)
        self.executed = 0
        self.stats = dict.fromkeys(SUPERVISION_COUNTERS, 0)

    def execute(
        self,
        policy: RetryPolicy,
        on_outcome: _OutcomeFn,
        **supervision: Any,
    ) -> List[Optional[Any]]:
        """Run the pending jobs; results in job order, ``None`` where
        a job did not finish.

        ``supervision`` (``workers``, ``cell_timeout_s``,
        ``fault_plan``, ``shutdown``) configures the
        :class:`CellSupervisor`, built only when a job is pending.
        ``on_outcome(outcome, superseding)`` sees every resolved cell,
        a finished one after its put; ``superseding`` says the put
        overwrote a record already in the store (another writer's, or
        this cell's own before a ``crash_after_put`` fault). An
        exception from it ends the run. A put raising
        :class:`InjectedFault` requeues its cell; any other put error
        propagates.
        """
        if self.pending:
            supervisor = CellSupervisor(policy, **supervision)
            try:
                for index in self.pending:
                    supervisor.submit(index, self.jobs[index])
                for outcome in iter(supervisor.next_outcome, None):
                    superseding = False
                    if outcome.kind == "done":
                        try:
                            superseding = self._put(outcome)
                        except InjectedFault as fault:
                            # The result may not be durable: the cell
                            # goes around again.
                            supervisor.requeue(
                                outcome.index, "persist_fault",
                                str(fault), fault,
                            )
                            continue
                        self.reports[outcome.index] = outcome.report
                        self.executed += 1
                    on_outcome(outcome, superseding)
            finally:
                supervisor.close()
                self.stats = dict(supervisor.stats)
        return [self.reports[source] for source in self._source]

    def _put(self, outcome: CellOutcome) -> bool:
        """Persist a finished cell; True when it overwrote a record."""
        if self.store is None:
            return False
        fingerprint = self.fingerprints[outcome.index]
        superseding = fingerprint in self.store
        self.store.put(
            fingerprint, outcome.report, meta=outcome.job.store_meta()
        )
        return superseding
