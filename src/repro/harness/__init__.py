"""Experiment harness: the paper's evaluation grid, cached and parallel.

Runs (scheme x PEC-setpoint x workload) cells of the Section 7
evaluation and assembles the normalized comparisons the paper's figures
show. The package splits the old single-module harness into layers:

* :mod:`repro.harness.cells` — one cell end to end
  (``run_workload_cell``);
* :mod:`repro.harness.grid` — :class:`EvaluationGrid` with an O(1)
  ``(scheme, pec, workload)`` index and figure-shaped projections;
* :mod:`repro.harness.cache` — :class:`~repro.harness.cache.Job`, the
  protocol that derives the key a finished job is stored under, its
  store meta and its label from one payload;
* :mod:`repro.harness.store` — :class:`ResultStore`, the persistence
  contract the :class:`~repro.campaign.store.ShardedResultStore`
  fulfils;
* :mod:`repro.harness.runner` — :class:`GridRunner` tying them
  together. Jobs run through the campaign's execution loop
  (:class:`repro.campaign.supervisor.JobRun`): in this process with
  one worker, and over ``CellSupervisor`` worker processes with
  ``GridRunner(workers=n)``.

Quick start::

    from repro.harness import GridRunner

    grid = GridRunner(workers=4, cache=".repro-store").run(
        workloads=("ali.A", "hm"),
        requests=900,
    )
    print(grid.geomean_normalized(lambda r: r.read_tail(99.0), pec=500))

Parallel, cached, and serial runs of the same campaign are
bit-identical: cell seeds derive deterministically from the campaign
seed via :func:`repro.rng.derive`, and each cell is a pure function of
its inputs.
"""

from repro.harness.cache import CACHE_VERSION
from repro.harness.cells import (
    PAPER_PEC_POINTS,
    PAPER_SCHEMES,
    run_workload_cell,
)
from repro.harness.grid import CellKey, EvaluationGrid, GridCell
from repro.harness.runner import (
    CellJob,
    GridRunner,
    RunStats,
    grid_from_jobs,
    plan_jobs,
)
from repro.harness.store import ResultStore

__all__ = [
    "CACHE_VERSION",
    "CellJob",
    "CellKey",
    "EvaluationGrid",
    "GridCell",
    "GridRunner",
    "PAPER_PEC_POINTS",
    "PAPER_SCHEMES",
    "ResultStore",
    "RunStats",
    "grid_from_jobs",
    "plan_jobs",
    "run_workload_cell",
]
