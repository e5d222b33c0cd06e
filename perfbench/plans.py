"""The benchmark's three workloads, driven only through public calls.

Each workload is a fixed list of operations — grid cells or lifetime
curves — made from the run's seed and run one after another in this
process: a batch job with at most one worker thread, no clients. Request
arrivals inside a cell follow the trace's own open-loop schedule in
simulated time, so host speed does not change what is simulated.

* ``grid_write`` — the Fig. 14 / Table 4 grid (five paper schemes x
  0.5K/2.5K/4.5K PEC) on the three most write-dominated Table 3 traces,
  one ``GridRunner.run`` call per cell, with no store.
* ``campaign_read`` — the same grid on the three most read-dominated
  traces, through ``CampaignOrchestrator`` (one thread worker) into a
  fresh ``ShardedResultStore``.
* ``lifetime`` — the Fig. 13/16/17 lifetime curves on 128-block sets,
  one public call per curve: ``compare_schemes``,
  ``misprediction_sensitivity`` and ``requirement_sensitivity``.

A *fresh* pass computes every operation and times each one. A *resume*
pass re-serves the whole finished workload from a store opened anew,
through the call a user re-runs: ``GridRunner.run(cache=...)``, the
orchestrator, or the lifetime calls with ``cache=``. Every engine is
``auto``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro.campaign import CampaignOrchestrator, CampaignSpec, ShardedResultStore
from repro.harness import PAPER_PEC_POINTS, PAPER_SCHEMES, GridRunner
from repro.harness.results import result_to_json_dict
from repro.lifetime import (
    compare_schemes,
    misprediction_sensitivity,
    requirement_sensitivity,
)
from repro.nand.chip_types import profile_by_name
from repro.telemetry.instruments import store_metrics

#: Requests replayed per grid cell (the paper-figure benches' scale).
REQUESTS = 900
#: Blocks per lifetime block set (the paper cycles 120).
BLOCKS = 128
LIFETIME_PROFILES = ("3D-TLC-48L", "2D-TLC-2xnm", "3D-MLC-48L")
SENSITIVITY_PROFILE = "3D-TLC-48L"
MISPREDICT_RATES = (0.0, 0.01, 0.05, 0.10, 0.20)
MISPREDICT_SCHEMES = ("aero_cons", "aero")
REQUIREMENTS = (40, 50, 63)
REQUIREMENT_SCHEMES = ("baseline", "aero_cons", "aero")

#: Cells replayed on both engines after the timed passes: an aero cell
#: at 2.5K PEC on the first trace of each grid workload.
CROSS_CHECK_CELLS = (("aero", 2500, "ali.A"), ("aero", 2500, "usr"))

#: Opens a span ``(name, op)`` around part of a pass: ``Tracer.span`` in
#: a traced iteration, :func:`no_span` otherwise.
OpSpan = Callable[..., ContextManager[Any]]


def no_span(name: str, op: Optional[str] = None) -> ContextManager[Any]:
    return contextlib.nullcontext()


def no_tick() -> None:
    pass


def canonical(result: Any) -> str:
    """Canonical JSON of one ``PerfReport`` or ``LifetimeCurve``."""
    data = None if result is None else result_to_json_dict(result)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(canon: List[str]) -> str:
    """SHA-256 over the canonical JSON of every result, in plan order."""
    sha = hashlib.sha256()
    for text in canon:
        sha.update(text.encode())
        sha.update(b"\n")
    return sha.hexdigest()


@dataclass
class Pass:
    """What one pass over a workload's operations produced.

    ``results`` is in plan order (``None`` where an operation failed).
    ``intervals`` holds the ``(start, end)`` ``perf_counter`` times of
    each operation of a fresh pass, or of the whole of a resume pass;
    together they cover the pass except the host-speed probes run
    between operations. ``failed`` maps a plan index to the reason that
    operation failed.
    """

    results: List[Any]
    intervals: List[Tuple[float, float]] = field(default_factory=list)
    failed: Dict[int, str] = field(default_factory=dict)
    store: Optional[Path] = None

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


def _fail_all(count: int, reason: str) -> Dict[int, str]:
    return {index: reason for index in range(count)}


class Workload:
    """One workload: its operations and how a pass runs them."""

    name = ""
    #: Plotted series completed by one pass (``curves_per_s``).
    series = 0

    def ops(self) -> List[Tuple]:
        raise NotImplementedError

    def label(self, op: Tuple) -> str:
        raise NotImplementedError

    def run_op(self, op: Tuple, seed: int) -> Any:
        raise NotImplementedError

    def check(self, op: Tuple, result: Any) -> Optional[str]:
        """Why ``result`` is wrong for ``op``, or None."""
        return None

    def warm_up(self, seed: int, work: Path) -> None:
        """One untimed operation, so lazy set-up finishes before timing."""
        self.run_op(self.ops()[0], seed)

    def fresh(
        self,
        seed: int,
        work: Path,
        op_span: OpSpan = no_span,
        tick: Callable[[], None] = no_tick,
    ) -> Pass:
        """Run every operation; ``tick`` runs between operations."""
        results: List[Any] = []
        intervals: List[Tuple[float, float]] = []
        failed: Dict[int, str] = {}
        for index, op in enumerate(self.ops()):
            tick()
            begin = time.perf_counter()
            try:
                with op_span("op", self.label(op)):
                    result = self.run_op(op, seed)
            except Exception as exc:  # an operation that raises has failed
                result = None
                failed[index] = f"{self.label(op)} raised {exc!r}"
            intervals.append((begin, time.perf_counter()))
            results.append(result)
        tick()
        return Pass(results, intervals, failed)

    def prepare_resume(
        self, seed: int, work: Path, first: Pass
    ) -> Tuple[Path, Optional[Pass]]:
        """A store holding the finished workload, plus any pass run to
        fill it (its operations are checked like any other pass)."""
        raise NotImplementedError

    def resume(self, seed: int, root: Path) -> Pass:
        raise NotImplementedError


class _Grid(Workload):
    """The paper grid on three traces; an operation is one cell."""

    traces: Tuple[str, ...] = ()

    @property
    def series(self) -> int:
        # One Fig. 14 line per (trace, scheme) across the PEC points.
        return len(self.traces) * len(PAPER_SCHEMES)

    def ops(self) -> List[Tuple]:
        # GridRunner's canonical pec -> trace -> scheme order.
        return [
            (scheme, pec, trace)
            for pec in PAPER_PEC_POINTS
            for trace in self.traces
            for scheme in PAPER_SCHEMES
        ]

    def label(self, op: Tuple) -> str:
        return "{}/{}/{}".format(*op)

    def run_op(self, op: Tuple, seed: int) -> Any:
        scheme, pec, trace = op
        grid = GridRunner().run(
            schemes=(scheme,),
            pec_points=(pec,),
            workloads=(trace,),
            requests=REQUESTS,
            seed=seed,
            engine="auto",
        )
        return grid.cells[0].report

    def check(self, op: Tuple, report: Any) -> Optional[str]:
        if report.requests_completed < REQUESTS:
            return (
                f"{self.label(op)} completed {report.requests_completed} "
                f"of {REQUESTS} requests"
            )
        return None


class GridWrite(_Grid):
    name = "grid_write"
    traces = ("ali.A", "rsrch", "stg")

    def prepare_resume(self, seed, work, first):
        root = work / "grid-store"
        store = ShardedResultStore(root)
        jobs = GridRunner().plan(
            PAPER_SCHEMES, PAPER_PEC_POINTS, self.traces, REQUESTS,
            None, True, seed, engine="auto",
        )
        for job, report in zip(jobs, first.results):
            if report is not None:
                store.put(job.fingerprint, report, meta=job.store_meta())
        return root, None

    def resume(self, seed, root):
        start = time.perf_counter()
        runner = GridRunner(cache=ShardedResultStore(root))
        grid = runner.run(
            schemes=PAPER_SCHEMES,
            pec_points=PAPER_PEC_POINTS,
            workloads=self.traces,
            requests=REQUESTS,
            seed=seed,
            engine="auto",
        )
        interval = (start, time.perf_counter())
        results = [cell.report for cell in grid.cells]
        failed = {}
        if runner.stats.executed:
            failed = _fail_all(
                len(results),
                f"resume re-executed {runner.stats.executed} cells",
            )
        return Pass(results, [interval], failed)


class CampaignRead(_Grid):
    name = "campaign_read"
    traces = ("ali.E", "usr", "proj")

    def __init__(self) -> None:
        self._stores = itertools.count()

    def spec(self, seed: int, **narrow: Any) -> CampaignSpec:
        fields = dict(
            schemes=PAPER_SCHEMES,
            pec_points=PAPER_PEC_POINTS,
            workloads=self.traces,
            requests=REQUESTS,
            seed=seed,
            engine="auto",
        )
        fields.update(narrow)
        return CampaignSpec(**fields)

    @staticmethod
    def _orchestrate(spec, root: Path, on_cell=None):
        return CampaignOrchestrator(
            spec,
            ShardedResultStore(root),
            process_workers=1,
            thread_workers=1,
            on_cell=on_cell,
        ).run()

    def warm_up(self, seed, work):
        scheme, pec, trace = self.ops()[0]
        spec = self.spec(
            seed, schemes=(scheme,), pec_points=(pec,), workloads=(trace,)
        )
        self._orchestrate(spec, work / "warm-up-store")

    def fresh(self, seed, work, op_span=no_span, tick=no_tick):
        count = len(self.ops())
        root = work / f"campaign-store-{next(self._stores)}"
        # A cell's interval runs from the previous cell's on_cell (after
        # the host-speed probe) to its own; the last one runs to the end
        # of the campaign. The orchestrator dispatches the next cell only
        # after on_cell returns, so the probe never shares the interpreter
        # with the worker thread.
        starts: List[float] = []
        ends: List[float] = []

        def on_cell(index, job, report):
            ends.append(time.perf_counter())
            if len(ends) < count:
                tick()
                starts.append(time.perf_counter())

        tick()
        starts.append(time.perf_counter())
        try:
            with op_span("op", f"campaign/{root.name}"):
                result = self._orchestrate(self.spec(seed), root, on_cell)
        except Exception as exc:  # the whole campaign failed
            reason = f"campaign raised {exc!r}"
            return Pass([None] * count, [(starts[0], time.perf_counter())],
                        _fail_all(count, reason), store=root)
        finish = time.perf_counter()
        tick()
        if ends:
            ends[-1] = finish
        intervals = list(zip(starts, ends)) or [(starts[0], finish)]
        stats = result.stats
        if stats.retried or stats.quarantined:
            failed = _fail_all(
                count,
                f"campaign reported {stats.retried} retries and "
                f"{stats.quarantined} quarantined cells",
            )
        else:
            failed = {
                index: f"{self.label(op)} produced no report"
                for index, (op, report) in enumerate(
                    zip(self.ops(), result.reports)
                )
                if report is None
            }
        return Pass(list(result.reports), intervals, failed, store=root)

    def prepare_resume(self, seed, work, first):
        return first.store, None

    def resume(self, seed, root):
        start = time.perf_counter()
        result = self._orchestrate(self.spec(seed), root)
        interval = (start, time.perf_counter())
        failed = {}
        if result.stats.resumed != len(result.reports):
            failed = _fail_all(
                len(result.reports),
                f"resume served {result.stats.resumed} of "
                f"{len(result.reports)} cells from the store",
            )
        return Pass(list(result.reports), [interval], failed)


class Lifetime(Workload):
    """Fig. 13/16/17 lifetime curves; an operation is one curve."""

    name = "lifetime"

    def ops(self) -> List[Tuple]:
        ops = [
            ("fig13", profile, key, None)
            for profile in LIFETIME_PROFILES
            for key in PAPER_SCHEMES
        ]
        ops += [
            ("fig16", SENSITIVITY_PROFILE, key, rate)
            for rate in MISPREDICT_RATES
            for key in MISPREDICT_SCHEMES
        ]
        ops += [
            ("fig17", SENSITIVITY_PROFILE, key, requirement)
            for requirement in REQUIREMENTS
            for key in REQUIREMENT_SCHEMES
        ]
        return ops

    @property
    def series(self) -> int:
        return len(self.ops())

    def label(self, op: Tuple) -> str:
        figure, profile, key, value = op
        suffix = "" if value is None else f"/{value:g}"
        return f"{figure}/{key}@{profile}{suffix}"

    def run_op(self, op: Tuple, seed: int) -> Any:
        figure, name, key, value = op
        profile = profile_by_name(name)
        if figure == "fig13":
            return compare_schemes(
                profile, scheme_keys=(key,), block_count=BLOCKS, seed=seed
            ).curves[key]
        if figure == "fig16":
            return misprediction_sensitivity(
                profile, rates=(value,), scheme_keys=(key,),
                block_count=BLOCKS, seed=seed,
            )[value][key]
        return requirement_sensitivity(
            profile, requirements=(value,), scheme_keys=(key,),
            block_count=BLOCKS, seed=seed,
        )[value].curves[key]

    def check(self, op: Tuple, curve: Any) -> Optional[str]:
        if op[2] == "baseline" and curve.lifetime_pec is None:
            return f"{self.label(op)}: Baseline never crossed its requirement"
        return None

    def figures(self, seed: int, cache: Any) -> List[Any]:
        """Every curve through the three whole-figure calls, plan order."""
        curves: List[Any] = []
        for name in LIFETIME_PROFILES:
            comparison = compare_schemes(
                profile_by_name(name), scheme_keys=PAPER_SCHEMES,
                block_count=BLOCKS, seed=seed, cache=cache,
            )
            curves += [comparison.curves[key] for key in PAPER_SCHEMES]
        profile = profile_by_name(SENSITIVITY_PROFILE)
        by_rate = misprediction_sensitivity(
            profile, rates=MISPREDICT_RATES, scheme_keys=MISPREDICT_SCHEMES,
            block_count=BLOCKS, seed=seed, cache=cache,
        )
        curves += [
            by_rate[rate][key]
            for rate in MISPREDICT_RATES
            for key in MISPREDICT_SCHEMES
        ]
        by_requirement = requirement_sensitivity(
            profile, requirements=REQUIREMENTS,
            scheme_keys=REQUIREMENT_SCHEMES,
            block_count=BLOCKS, seed=seed, cache=cache,
        )
        curves += [
            by_requirement[requirement].curves[key]
            for requirement in REQUIREMENTS
            for key in REQUIREMENT_SCHEMES
        ]
        return curves

    def prepare_resume(self, seed, work, first):
        # The store is filled through the whole-figure calls themselves,
        # which also checks they agree with the one-curve calls.
        root = work / "lifetime-store"
        return root, Pass(self.figures(seed, ShardedResultStore(root)))

    def resume(self, seed, root):
        misses = store_metrics("sharded").get_outcome(hit=False)
        before = misses.value
        start = time.perf_counter()
        curves = self.figures(seed, ShardedResultStore(root))
        interval = (start, time.perf_counter())
        failed = {}
        if misses.value != before:
            failed = _fail_all(
                len(curves),
                f"resume missed the store {misses.value - before:g} times",
            )
        return Pass(curves, [interval], failed)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (GridWrite(), CampaignRead(), Lifetime())
}


def engine_cross_check(seed: int) -> List[Tuple[str, Optional[str]]]:
    """Replay :data:`CROSS_CHECK_CELLS` on both engines.

    Returns ``(label, problem)`` per cell; the object-engine report must
    equal the ``auto`` (kernel) report exactly.
    """
    outcomes: List[Tuple[str, Optional[str]]] = []
    for scheme, pec, trace in CROSS_CHECK_CELLS:
        label = f"{scheme}/{pec}/{trace}"
        canon = {}
        try:
            for engine in ("auto", "object"):
                grid = GridRunner().run(
                    schemes=(scheme,), pec_points=(pec,), workloads=(trace,),
                    requests=REQUESTS, seed=seed, engine=engine,
                )
                canon[engine] = canonical(grid.cells[0].report)
        except Exception as exc:  # a raising replay fails the check
            outcomes.append((label, f"engine cross-check raised {exc!r}"))
            continue
        problem = None
        if canon["auto"] != canon["object"]:
            problem = f"{label}: object-engine report differs from kernel"
        outcomes.append((label, problem))
    return outcomes
