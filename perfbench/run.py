#!/usr/bin/env python3
"""Benchmark of the AERO reproduction: one workload per process.

Run from the repository root::

    python3 perfbench/run.py --workload grid_write --seed 1 --seconds 20 --trace 0

Workloads (see ``plans.py``): ``grid_write``, ``campaign_read`` and
``lifetime``. The library is imported from ``src/`` beside this
directory and driven only through its public calls; nothing is built.

The run pins itself, and the set-up processes it spawns, to one CPU.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
nothing wrapped. All times are host wall seconds scaled by
:class:`HostSpeed` to a reference host speed:

* ``setup_s`` — process start to ready (imports and registries, one
  untimed warm-up cell or curve, the store root), median of
  :data:`SETUP_SAMPLES` fresh processes;
* ``cells_per_s`` — operations (grid cells; lifetime curves) per second
  of a fresh pass, median over passes;
* ``cell_s_p50`` / ``cell_s_p75`` — seconds per operation: each
  operation's median over the fresh passes, then the median and 75th
  percentile over the operations;
* ``resume_cells_per_s`` — operations served per second by a resume
  pass from a store opened anew, median over the :data:`RESUME_PASSES`
  run back to back after each fresh pass;
* ``curves_per_s`` — plotted series per second of a fresh pass
  (lifetime: one per curve; grids: one Fig. 14 line per trace and
  scheme), median over passes;
* ``peak_rss_mb`` — peak resident memory of this process;
* ``lifetime_gain_err`` — mean absolute error of the Fig. 13 lifetime
  gains against the paper (``paper.py``), on a fixed-seed sweep run
  after the timed passes.

``--trace 1`` alternates untraced and traced iterations and reports the
``per_layer`` metrics of ``BENCHMARK.json`` (see README.md), with the
tracing overhead.

Each run prints every metric with its unit, the result digest (SHA-256
over the canonical JSON of every result, in plan order) and the
operations attempted and failed; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. An
operation is one cell, one curve or one resume-pass lookup; it fails if
it raises, if a cell completes fewer requests than its trace holds, if a
Baseline curve never crosses its requirement, if the campaign reports a
retry or a quarantine, if a store serves a result unequal to the one put,
if its pass's digest differs from the first pass's, or, for the two
cells replayed on both engines after the timed passes, if the object
engine's report differs from the kernel's.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# The benchmark's other modules import the library, so they are imported
# only after main() has put src/ on the path.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, removed when the run ends.
WORK_DIR = ".perfbench_work"
#: Where a traced run writes its spans.
OUT_DIR = ".perfbench_out"
#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 15
#: Host-speed probes run just before each of them and once it has exited.
SETUP_TICKS = 3
#: Resume passes run back to back after each fresh pass.
RESUME_PASSES = 10
WORKLOAD_NAMES = ("grid_write", "campaign_read", "lifetime")


def _metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of ``BENCHMARK.json``'s ``end_to_end`` or
    ``per_layer`` metrics, in their order there."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _pin_to_one_cpu() -> None:
    """Run this process and the processes it spawns on one CPU.

    On a host whose CPUs run at different speeds from moment to moment,
    the probes of :class:`HostSpeed` then time the CPU the measured
    work runs on, set-up processes included.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


_PROBE_PAYLOAD = json.dumps({"values": [i * 1.0001234567 for i in range(900)]})


def _probe_work() -> None:
    """A fixed mix of interpreter and JSON work, like a cell's replay
    and a store lookup's parsing."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    json.dumps(json.loads(_PROBE_PAYLOAD))


class HostSpeed:
    """An interleaved probe of the host's speed, to scale wall times by.

    The shared host this benchmark was tuned on changes speed by up to
    1.6x over a few seconds, and CPU time tracks wall time exactly, so
    raw wall times of identical runs spread by 20-33 %. :meth:`tick`
    times a fixed piece of interpreter and JSON work between operations,
    on the one CPU the run is pinned to (:func:`_pin_to_one_cpu`);
    :meth:`scaled` converts a wall interval to the seconds it would take
    on a host where that work takes :data:`NOMINAL_S`, using the median
    probe within :data:`WINDOW_S` of the interval.
    """

    NOMINAL_S = 1.5e-3
    WINDOW_S = 0.5

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []

    def tick(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            begin = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
            self.times.append(end)
            self.durations.append(end - begin)

    def scaled(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        if hi - lo < 3:
            centre = bisect.bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, centre - 2), centre + 2
        factor = self.NOMINAL_S / statistics.median(self.durations[lo:hi])
        return (end - start) * factor

    def total(self, intervals: Sequence[Tuple[float, float]]) -> float:
        return sum(self.scaled(start, end) for start, end in intervals)


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def add(self, attempted: int, failures: Iterable[str]) -> None:
        failures = list(failures)
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(failures[: max(0, 5 - len(self.reasons))])


class Run:
    """One invocation's passes over a workload, checked as they go."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.speed = HostSpeed()
        self.ledger = Ledger()
        self.reference: Optional[List[str]] = None
        self.first: List[Any] = []
        self.store: Optional[Path] = None

    def check(self, done, what: str) -> None:
        """Count ``done``'s operations and record those that failed."""
        import plans

        ops = self.workload.ops()
        failed = dict(done.failed)
        for index, (op, result) in enumerate(zip(ops, done.results)):
            if index not in failed and result is not None:
                problem = self.workload.check(op, result)
                if problem:
                    failed[index] = problem
        canon = [plans.canonical(result) for result in done.results]
        if self.reference is None:
            self.reference = canon
            self.first = list(done.results)
        elif canon != self.reference:
            differ = sum(a != b for a, b in zip(canon, self.reference))
            differ += abs(len(canon) - len(self.reference))
            failed = {
                index: f"{what}: digest differs from the first pass "
                f"({differ} results differ)"
                for index in range(len(ops))
            }
        self.ledger.add(len(ops), failed.values())

    def iteration(self, op_span) -> tuple:
        """One fresh pass, then :data:`RESUME_PASSES` resume passes back
        to back, with a host-speed probe before and after each."""
        gc.collect()

        def tick() -> None:
            # In a traced campaign the probe runs inside the
            # orchestrator's span; its own span keeps it out of the
            # orchestrator's self time.
            with op_span("bench"):
                self.speed.tick()

        fresh = self.workload.fresh(self.seed, self.work, op_span, tick)
        self.check(fresh, "fresh pass")
        if self.store is None:
            self.store, filling = self.workload.prepare_resume(
                self.seed, self.work, fresh
            )
            if filling is not None:
                self.check(filling, "store fill")
        elif fresh.store is not None and fresh.store != self.store:
            shutil.rmtree(fresh.store, ignore_errors=True)
        fresh.results = []  # keep the timings only
        resumes = []
        for _ in range(RESUME_PASSES):
            tick()
            with op_span("resume"):
                done = self.workload.resume(self.seed, self.store)
            tick()
            self.check(done, "resume pass")
            done.results = []
            resumes.append(done)
        return fresh, resumes

    def epilogue(self) -> float:
        """Untimed checks: both engines, and the Fig. 13 reference sweep.

        Returns ``lifetime_gain_err``.
        """
        import paper
        import plans
        from repro.harness import PAPER_SCHEMES
        from repro.lifetime import compare_schemes
        from repro.nand.chip_types import profile_by_name

        for _, problem in plans.engine_cross_check(self.seed):
            self.ledger.add(1, [problem] if problem else [])
        try:
            comparison = compare_schemes(
                profile_by_name(paper.REFERENCE_PROFILE),
                scheme_keys=PAPER_SCHEMES,
                block_count=plans.BLOCKS,
                seed=paper.REFERENCE_SEED,
            )
            if comparison.curves["baseline"].lifetime_pec is None:
                raise ValueError("Baseline never crossed its requirement")
            error = paper.lifetime_gain_err(comparison)
        except Exception as exc:  # the sweep's curves fail as operations
            self.ledger.add(
                len(PAPER_SCHEMES),
                [f"Fig. 13 reference sweep: {exc!r}"] * len(PAPER_SCHEMES),
            )
            return 0.0
        self.ledger.add(len(PAPER_SCHEMES), [])
        return error


def _rates(speed: HostSpeed, count: int, passes) -> List[float]:
    return [count / speed.total(done.intervals) for done in passes]


def _setup_probe(args: argparse.Namespace, work: Path) -> int:
    """Child mode: set up, print the parts' timings, exit."""
    begin = time.perf_counter()
    import plans
    from repro.campaign import ShardedResultStore

    imported = time.perf_counter()
    plans.WORKLOADS[args.workload].warm_up(args.seed, work)
    warmed = time.perf_counter()
    ShardedResultStore(work / "store")
    print(
        json.dumps(
            {"import_s": imported - begin, "warmup_s": warmed - imported}
        ),
        flush=True,
    )
    return 0


def _sample_setup(args: argparse.Namespace, speed: HostSpeed) -> tuple:
    """Time :data:`SETUP_SAMPLES` fresh processes from spawn to ready."""
    intervals, parts = [], []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_SAMPLES):
        speed.tick(SETUP_TICKS)
        start = time.perf_counter()
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.communicate(timeout=120)
        # Only once the child has exited: it shares the pinned CPU.
        speed.tick(SETUP_TICKS)
        if child.returncode != 0 or not line.strip():
            raise RuntimeError(
                f"set-up probe exited with code {child.returncode}"
            )
        intervals.append((start, ready))
        parts.append(json.loads(line))
    return [speed.scaled(*interval) for interval in intervals], parts


def _grid_layer_metrics(workload, results: List[Any]) -> Dict[str, float]:
    """Per-cell model statistics from the first pass's reports."""
    from repro.harness import PAPER_PEC_POINTS
    from repro.ssd.metrics import PerfReport

    reports = [report for report in results if isinstance(report, PerfReport)]
    names = (
        "cell.requests", "cell.suspensions", "ftl.waf",
        "ftl.gc_page_moves", "sim.aero_read_tail_ratio",
    )
    if not reports or len(reports) != len(results):
        return dict.fromkeys(names, 0.0)
    count = len(reports)
    by_op = dict(zip(workload.ops(), reports))
    logs = [
        math.log(
            by_op[("aero", pec, trace)].read_tail(99.0)
            / by_op[("baseline", pec, trace)].read_tail(99.0)
        )
        for pec in PAPER_PEC_POINTS
        for trace in workload.traces
    ]
    return {
        "cell.requests": sum(r.requests_completed for r in reports) / count,
        "cell.suspensions": sum(r.erase_suspensions for r in reports) / count,
        "ftl.waf": sum(r.extra["waf"] for r in reports) / count,
        "ftl.gc_page_moves": sum(r.gc_page_moves for r in reports) / count,
        "sim.aero_read_tail_ratio": math.exp(sum(logs) / len(logs)),
    }


def _measure(run: Run, seconds: float) -> Dict[str, float]:
    """``--trace 0``: untraced iterations until ``seconds`` have passed."""
    import plans

    fresh_passes, resume_passes = [], []
    deadline = time.perf_counter() + seconds
    # The first iteration fills the resume store; a second one resumes.
    while len(fresh_passes) < 2 or time.perf_counter() < deadline:
        fresh, resumes = run.iteration(plans.no_span)
        fresh_passes.append(fresh)
        resume_passes.extend(resumes)
    speed = run.speed
    count = len(run.workload.ops())
    # Each operation's time is its median over the passes; the
    # percentiles are taken over the operations.
    per_op = [
        statistics.median(times)
        for times in zip(*(
            [speed.scaled(*interval) for interval in done.intervals]
            for done in fresh_passes
        ))
    ]
    return {
        "cells_per_s": statistics.median(_rates(speed, count, fresh_passes)),
        "cell_s_p50": statistics.median(per_op),
        "cell_s_p75": statistics.quantiles(per_op, n=4)[2],
        "resume_cells_per_s": statistics.median(
            _rates(speed, count, resume_passes)
        ),
        "curves_per_s": statistics.median(
            _rates(speed, run.workload.series, fresh_passes)
        ),
    }


def _trace(run: Run, seconds: float, out: Path) -> Dict[str, float]:
    """``--trace 1``: untraced and traced iterations, alternating."""
    import plans
    import spans
    from repro.campaign import ShardedResultStore

    tracer = spans.Tracer()
    walls = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    while not walls[True] or time.perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                context, op_span = tracer.installed(), tracer.span
            else:
                context, op_span = contextlib.nullcontext(), plans.no_span
            with context:
                fresh, _ = run.iteration(op_span)
            walls[traced] += run.speed.total(fresh.intervals)
    metrics = spans.layer_metrics(tracer)
    metrics.update(_grid_layer_metrics(run.workload, run.first))
    stats = ShardedResultStore(run.store).stats()
    metrics["store.bytes_per_record"] = (
        stats.data_bytes / stats.keys if stats.keys else 0.0
    )
    metrics["store.bad_entries"] = float(
        stats.stale + stats.corrupt + stats.corrupt_lines
        + stats.checksum_failed
    )
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    tracer.write(out)
    return metrics


def _bench(args: argparse.Namespace, work: Path) -> int:
    import paper
    import plans

    _pin_to_one_cpu()
    workload = plans.WORKLOADS[args.workload]
    work.mkdir(parents=True, exist_ok=True)
    workload.warm_up(args.seed, work)
    run = Run(workload, args.seed, work)
    setup_walls, setup_parts = _sample_setup(args, run.speed)
    if args.trace:
        out = ROOT / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        values = _trace(run, args.seconds, out)
        for part in ("import_s", "warmup_s"):
            values[f"setup.{part}"] = statistics.median(
                sample[part] for sample in setup_parts
            )
        units = _metric_units("per_layer")
    else:
        values = _measure(run, args.seconds)
        values["setup_s"] = statistics.median(setup_walls)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        units = _metric_units("end_to_end")
    gain_err = run.epilogue()
    if not args.trace:
        values["lifetime_gain_err"] = gain_err

    ledger = run.ledger
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:.6g} {unit}")
    gains = "/".join(f"{gain:+.0%}" for gain in paper.FIG13_LIFETIME_GAIN.values())
    print(
        f"reference: lifetime_gain_err {gain_err:.4f} against the Fig. 13 "
        f"gains {gains} of arXiv 2404.10355"
    )
    if args.trace and values["sim.aero_read_tail_ratio"]:
        print(
            f"reference: sim.aero_read_tail_ratio "
            f"{values['sim.aero_read_tail_ratio']:.3f} (p99, "
            f"{plans.REQUESTS} requests per cell) beside Fig. 14's "
            f"{paper.FIG14_AERO_READ_TAIL_RATIO} (p99.99) of arXiv 2404.10355"
        )
    if args.trace:
        print(f"spans written to {out.relative_to(ROOT)}")
    print(f"digest {plans.digest(run.reference or [])}")
    print(
        f"operations attempted {ledger.attempted}, failed {ledger.failed}"
    )
    for reason in ledger.reasons:
        print(f"  failed: {reason}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the library is missing ({ROOT / 'src' / 'repro'}); "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            return _setup_probe(args, work)
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
