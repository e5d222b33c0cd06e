"""Grid runner: cached, optionally parallel campaign execution.

``GridRunner`` turns a (schemes x pec_points x workloads) request into
an ordered list of independent cell jobs, satisfies as many as it can
from its result store (a :class:`~repro.campaign.store.
ShardedResultStore`), runs the rest through the campaign's execution
loop (:class:`~repro.campaign.supervisor.JobRun`) — in this process
with one worker, on supervised worker processes with more — and
assembles the
:class:`~repro.harness.grid.EvaluationGrid` in the canonical
pec -> workload -> scheme order regardless of completion order.

Determinism: the runner derives one seed per (pec, workload) point via
:func:`repro.rng.derive` — shared by every scheme at that point, so
schemes are always compared on the *same* trace and device-variation
draw, as in the paper — and each cell is a pure function of its job
description. A ``GridRunner(workers=4)`` grid is therefore
bit-identical to a serial one, and a cached report is bit-identical
to a recomputed one.

Resume: pass ``cache`` (a store or a directory path) and every
finished cell is persisted immediately; re-running the same campaign
(same spec, schemes, setpoints, workloads, requests, seed) skips
straight past completed cells, so an interrupted campaign continues
where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SsdSpec
from repro.errors import ConfigError
from repro.experiments.registry import WORKLOADS
from repro.harness.cache import CACHE_VERSION, Job
from repro.harness.cells import (
    FOOTPRINT_FRACTION,
    PAPER_PEC_POINTS,
    PAPER_SCHEMES,
    PRECONDITION_FRACTION,
    run_workload_cell,
)
from repro.harness.grid import EvaluationGrid, GridCell
from repro.harness.store import ResultStore
from repro.rng import derive
from repro.ssd.metrics import PerfReport
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class CellJob(Job):
    """Self-contained work order for one grid cell (picklable).

    ``workload`` is the abbreviation used for labels and seed
    derivation; ``profile`` carries a caller-supplied
    :class:`WorkloadProfile` when it differs from the registry entry
    for that abbreviation (and is folded into the fingerprint, so a
    tweaked profile never collides with the stock workload's cache).
    """

    scheme: str
    pec: int
    workload: str
    spec: SsdSpec
    requests: int
    erase_suspension: bool
    seed: int
    profile: Optional[WorkloadProfile] = None
    #: Extra scheme knobs as sorted (key, value) pairs — a tuple so the
    #: job stays frozen/picklable with a canonical repr;
    #: ``mispredict_rate`` and ``rber_requirement`` travel here when
    #: non-default.
    scheme_params: Tuple[Tuple[str, Any], ...] = ()
    #: Execution engine (``auto``/``object``/``kernel``). Deliberately
    #: absent from the fingerprint: the kernel replay is report-identical
    #: to the object path (pinned by tests), so both engines share one
    #: cache entry per cell.
    engine: str = "auto"

    family = "cell"
    label = "{scheme}/{pec}/{workload}"

    def payload(self) -> Dict[str, Any]:
        # mispredict_rate keeps its dedicated line (and the remaining
        # params are folded in only when present) so caches written
        # before scheme_params existed remain valid. float() keeps an
        # integer-spelled rate (0 vs 0.0) from splitting the key.
        params = dict(self.scheme_params)
        payload = {
            "version": CACHE_VERSION,
            "spec": self.spec,
            "scheme": self.scheme,
            "pec": self.pec,
            "workload": (
                self.workload if self.profile is None else repr(self.profile)
            ),
            "requests": self.requests,
            "seed": self.seed,
            "erase_suspension": self.erase_suspension,
            "footprint_fraction": FOOTPRINT_FRACTION,
            "precondition_fraction": PRECONDITION_FRACTION,
            "mispredict_rate": float(params.pop("mispredict_rate", 0.0)),
        }
        if params:
            payload["scheme_params"] = tuple(sorted(params.items()))
        return payload

    def execute(self) -> PerfReport:
        """Replay the cell (a pure function of the job)."""
        return run_workload_cell(
            self.scheme,
            self.pec,
            self.profile if self.profile is not None else self.workload,
            spec=self.spec,
            requests=self.requests,
            erase_suspension=self.erase_suspension,
            seed=self.seed,
            scheme_params=dict(self.scheme_params),
            engine=self.engine,
        )


def grid_from_jobs(
    jobs: Sequence[CellJob], reports: Sequence[PerfReport]
) -> EvaluationGrid:
    """Assemble an :class:`EvaluationGrid` from jobs and their reports.

    Shared by :meth:`GridRunner.run`, the campaign orchestrator and
    ``python -m repro grid``, so they cannot drift in how cells are
    keyed.
    """
    grid = EvaluationGrid()
    for job, report in zip(jobs, reports):
        grid.add(
            GridCell(
                scheme=job.scheme,
                pec=job.pec,
                workload=job.workload,
                report=report,
            )
        )
    return grid


def execute_job(job: Any) -> Any:
    """Run one job of any campaign family (module-level, picklable).

    Every job brings its own ``execute()``; the campaign supervisor,
    which runs every job of a :class:`GridRunner` or a campaign, calls
    this once per attempt.
    """
    return job.execute()


def plan_jobs(
    schemes: Sequence[str],
    pec_points: Sequence[int],
    workloads: Sequence[Union[str, WorkloadProfile]],
    requests: int,
    spec: Optional[SsdSpec],
    erase_suspension: bool,
    seed: int,
    engine: str = "auto",
) -> List[CellJob]:
    """Plan a campaign's jobs in canonical pec -> workload -> scheme order.

    The single planner behind :meth:`GridRunner.plan` and
    :meth:`repro.campaign.spec.CampaignSpec.jobs`, so grid runs and
    orchestrated campaigns derive identical seeds and fingerprints —
    a cell cached by one is served to the other.
    """
    jobs: List[CellJob] = []
    for pec in pec_points:
        for workload in workloads:
            if isinstance(workload, WorkloadProfile):
                abbr = workload.abbr
                # A profile identical to the registry entry shares
                # the stock workload's cache; any tweak keeps the
                # object (and a distinct fingerprint).
                try:
                    profile = (
                        None
                        if workload == WORKLOADS.resolve(abbr)
                        else workload
                    )
                except ConfigError:
                    profile = workload
            else:
                abbr, profile = workload, None
            # One seed per (pec, workload) point, shared by every
            # scheme so they replay the same trace on the same
            # device-variation draw.
            cell_seed = derive(seed, "grid", pec, abbr)
            cell_spec = (
                spec if spec is not None
                else SsdSpec.small_test(seed=cell_seed)
            )
            for scheme in schemes:
                jobs.append(
                    CellJob(
                        scheme=scheme,
                        pec=pec,
                        workload=abbr,
                        spec=cell_spec,
                        requests=requests,
                        erase_suspension=erase_suspension,
                        seed=cell_seed,
                        profile=profile,
                        engine=engine,
                    )
                )
    return jobs


@dataclass
class RunStats:
    """Where the cells of the last campaign came from."""

    executed: int = 0
    cached: int = 0

def _raise_unfinished(outcome: Any, superseding: bool) -> None:
    """``JobRun`` outcome hook: a job that did not finish ends the call."""
    if outcome.kind != "done":
        raise outcome.poison("failed") from outcome.cause


class GridRunner:
    """Executes evaluation grids through a result store and workers."""

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[Union[ResultStore, str, Path]] = None,
    ):
        """``workers`` is 1 to run jobs in this process, or the number
        of supervised worker processes to fan them out over.
        ``cache`` accepts any :class:`ResultStore` or a directory path,
        opened as a :class:`~repro.campaign.store.ShardedResultStore`
        (the same store ``campaign run`` uses).
        """
        if workers < 1:
            raise ConfigError(f"need at least 1 worker, got {workers}")
        self.workers = workers
        self.cache: Optional[ResultStore] = None
        if cache is not None:
            # Imported here: the campaign package imports this module.
            from repro.campaign.store import open_store

            self.cache = open_store(cache)
        self.stats = RunStats()

    # --- job planning -------------------------------------------------------

    def plan(
        self,
        schemes: Sequence[str],
        pec_points: Sequence[int],
        workloads: Sequence[Union[str, WorkloadProfile]],
        requests: int,
        spec: Optional[SsdSpec],
        erase_suspension: bool,
        seed: int,
        engine: str = "auto",
    ) -> List[CellJob]:
        """The campaign's jobs in canonical pec -> workload -> scheme order."""
        return plan_jobs(
            schemes, pec_points, workloads, requests, spec,
            erase_suspension, seed, engine=engine,
        )

    # --- execution ----------------------------------------------------------

    def execute_jobs(self, jobs: Sequence[Any]) -> List[Any]:
        """Execute jobs, results in job order; cache-aware.

        The reusable core of :meth:`run`, and the one call behind
        ``python -m repro run``/``grid``/``compare`` and
        :meth:`ExperimentSpec.run <repro.experiments.spec.ExperimentSpec.run>`,
        so CLI runs, spec files, and grid campaigns share cache
        entries. Jobs of any campaign family run here — lifetime jobs
        (:class:`repro.lifetime.spec.LifetimeJob`) interleave freely
        with grid cells; each is a :class:`~repro.harness.cache.Job`,
        read through ``fingerprint``, ``store_meta()``, ``describe()``
        and ``execute()``. Each
        distinct fingerprint runs at most once per call; its repeats
        share that result and count as cached in :attr:`stats`.

        Jobs run through the campaign's loop
        (:class:`~repro.campaign.supervisor.JobRun`) with retries off:
        the first job that fails, or whose put fails, ends the call
        with a :class:`PoisonCellError` naming it, whose ``__cause__``
        is the job's own exception when it ran in this process.
        """
        # Imported here: the campaign package imports this module.
        from repro.campaign.supervisor import JobRun, RetryPolicy

        run = JobRun(jobs, self.cache)
        reports = run.execute(
            RetryPolicy(max_retries=0),
            on_outcome=_raise_unfinished,
            workers=self.workers,
        )
        self.stats = RunStats(executed=run.executed, cached=run.resumed)
        return reports

    def run(
        self,
        schemes: Sequence[str] = PAPER_SCHEMES,
        pec_points: Sequence[int] = PAPER_PEC_POINTS,
        workloads: Sequence[Union[str, WorkloadProfile]] = ("ali.A", "hm", "usr"),
        requests: int = 1200,
        spec: Optional[SsdSpec] = None,
        erase_suspension: bool = True,
        seed: int = 0xAE20,
        engine: str = "auto",
    ) -> EvaluationGrid:
        """Run a campaign; cached cells load from disk, the rest execute."""
        jobs = self.plan(
            schemes, pec_points, workloads, requests, spec,
            erase_suspension, seed, engine=engine,
        )
        return grid_from_jobs(jobs, self.execute_jobs(jobs))

