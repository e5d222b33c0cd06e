"""In-memory span tracing around the library's public calls.

A traced pass wraps, from this file only, the library's public calls
behind the ``per_layer`` metrics of ``BENCHMARK.json`` — the library
itself is not modified — and records one span per call: name, start,
end, parent span
and the id of the cell or curve it belongs to (spans of one cell or
curve share that id). Spans stay in memory and are written out when the
run ends. A span's self time is its duration minus the part of it that
its child spans cover.

Spans opened on a thread with no open span of its own (the campaign's
worker thread) take the innermost open ``CampaignOrchestrator.run`` span
as their parent.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

_AERO = ("aero", "aero_cons")


class Tracer:
    """Collects spans and the counts read at the same boundaries."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, op]`` list per span.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[int]:
        index = self.open(name, op)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(
        self,
        name: str,
        fn: Callable,
        op: Optional[Callable[[tuple], str]] = None,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[tuple, Any, int], None]] = None,
        root: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call; ``root`` makes the span
        the parent of spans opened on threads with none of their own."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = tracer.open(name, op(args) if op is not None else None)
            if root:
                previous, tracer.root = tracer.root, index
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                if root:
                    tracer.root = previous
            if after is not None:
                after(args, result, index)
            return result

        return traced

    # --- instance-level wrapping ---------------------------------------------

    def _instrument_ssd(self, args: tuple, ssd: Any, index: int) -> None:
        """Wrap the built drive's scheme and FTL stats instances."""
        scheme = ssd.ftl.scheme
        scheme.erase = self.wrap("erase.erase", scheme.erase)
        stats = ssd.ftl.stats
        stats.record_erase = self.wrap(
            "telemetry.record_erase", stats.record_erase,
            before=self._count_pulses,
        )

    def _count_pulses(self, args: tuple) -> None:
        self.counts["erase.recorded"] += 1
        self.counts["erase.pulses"] += args[2]

    def _add_aero(self, key: str, stats: Any) -> None:
        if key in _AERO and stats is not None:
            self.counts["aero.erases"] += stats.erases
            self.counts["aero.mispredictions"] += stats.mispredictions
            self.counts["aero.shallow_probes"] += stats.shallow_probes
            self.counts["aero.shallow_useful"] += stats.shallow_useful

    def _cell_done(self, args: tuple, report: Any, index: int) -> None:
        scheme = args[0].ftl.scheme
        self._add_aero(scheme.name, getattr(scheme, "stats", None))

    def _instrument_simulator(self, args: tuple) -> None:
        simulator = args[0]
        if simulator.kernel is not None:
            simulator.kernel.erase_batch = self.wrap(
                "lifetime.erase_batch", simulator.kernel.erase_batch
            )
        simulator.rber.mrber_batch = self.wrap(
            "lifetime.mrber", simulator.rber.mrber_batch
        )

    def _curve_done(self, args: tuple, curve: Any, index: int) -> None:
        simulator = args[0]
        stats = (
            simulator.kernel.stats if simulator.kernel is not None
            else getattr(simulator.scheme, "stats", None)
        )
        self._add_aero(simulator.scheme_key, stats)

    def _jobs_handled(self, args: tuple) -> None:
        self.counts["harness.jobs"] += len(args[1])

    def _campaign_done(self, args: tuple, result: Any, index: int) -> None:
        self.counts["campaign.cells"] += len(result.jobs)
        self.counts["campaign.retries"] += result.stats.retried
        self.counts["campaign.quarantined"] += result.stats.quarantined

    def _get_done(self, args: tuple, result: Any, index: int) -> None:
        if result is None:
            self.spans[index][0] = "store.get.miss"

    # --- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the library's public calls for the duration of the block."""
        import repro.campaign.supervisor as supervisor
        import repro.harness.cells as cells
        import repro.harness.runner as runner
        import repro.kernels.cell as kernel_cell
        from repro.campaign.orchestrator import CampaignOrchestrator
        from repro.campaign.store import ShardedResultStore
        from repro.lifetime.simulator import LifetimeSimulator
        from repro.workloads.synthetic import SyntheticTraceGenerator

        def describe(args: tuple) -> str:
            return args[0].describe()

        patches = [
            (SyntheticTraceGenerator, "generate",
             dict(name="workloads.generate")),
            (cells, "build_ssd",
             dict(name="builder.build", after=self._instrument_ssd)),
            (kernel_cell, "precondition_kernel",
             dict(name="cell.precondition")),
            (kernel_cell, "run_trace_kernel",
             dict(name="cell.replay", after=self._cell_done)),
            (kernel_cell, "observe_replay",
             dict(name="telemetry.observe_replay")),
            (runner, "execute_job",
             dict(name="harness.execute_job", op=describe)),
            (runner.GridRunner, "execute_jobs",
             dict(name="harness.execute_jobs", before=self._jobs_handled)),
            (supervisor, "execute_job",
             dict(name="campaign.execute_job", op=describe)),
            (CampaignOrchestrator, "run",
             dict(name="campaign.run", root=True,
                  after=self._campaign_done)),
            (ShardedResultStore, "get",
             dict(name="store.get", after=self._get_done)),
            (ShardedResultStore, "put", dict(name="store.put")),
            (ShardedResultStore, "__contains__",
             dict(name="store.contains")),
            (LifetimeSimulator, "run",
             dict(name="lifetime.run", before=self._instrument_simulator,
                  after=self._curve_done)),
        ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, options in patches:
                setattr(owner, attr, self.wrap(fn=vars(owner)[attr], **options))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # --- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('["name","start","end","parent","op"]\n')
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _percentile_us(values: List[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] * 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the spans and counts of the traced passes.

    Metrics of a layer that never ran on this workload read 0.
    """
    own = self_times(tracer.spans)
    count: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for (name, start, end, _, _), mine in zip(tracer.spans, own):
        count[name] += 1
        total[name] += end - start
        self_s[name] += mine
        if name.startswith(("erase.", "store.")):
            durations[name].append(end - start)
    counts = tracer.counts
    cells = count["cell.replay"]
    curves = count["lifetime.run"]
    telemetry = ("telemetry.record_erase", "telemetry.observe_replay")
    return {
        "workloads.generate_s": _ratio(total["workloads.generate"], cells),
        "builder.build_s": _ratio(total["builder.build"], cells),
        "cell.precondition_self_s": _ratio(
            self_s["cell.precondition"], cells
        ),
        "cell.replay_self_s": _ratio(self_s["cell.replay"], cells),
        "erase.calls": _ratio(count["erase.erase"], cells),
        "erase.s": _ratio(total["erase.erase"], cells),
        "erase.us_p50": _percentile_us(durations["erase.erase"], 50),
        "erase.us_p90": _percentile_us(durations["erase.erase"], 90),
        "erase.pulses_per_erase": _ratio(
            counts["erase.pulses"], counts["erase.recorded"]
        ),
        "aero.felp_hit_ratio": (
            1.0 - _ratio(counts["aero.mispredictions"], counts["aero.erases"])
            if counts["aero.erases"] else 0.0
        ),
        "aero.shallow_useful_ratio": _ratio(
            counts["aero.shallow_useful"], counts["aero.shallow_probes"]
        ),
        "telemetry.calls": _ratio(sum(count[n] for n in telemetry), cells),
        "telemetry.s": _ratio(sum(total[n] for n in telemetry), cells),
        "harness.self_s": _ratio(
            self_s["harness.execute_jobs"], counts["harness.jobs"]
        ),
        "campaign.self_s": _ratio(
            self_s["campaign.run"], counts["campaign.cells"]
        ),
        "campaign.retries": counts["campaign.retries"],
        "campaign.quarantined": counts["campaign.quarantined"],
        "store.put_us_p50": _percentile_us(durations["store.put"], 50),
        "store.get_us_p50": _percentile_us(durations["store.get"], 50),
        "store.get_us_p90": _percentile_us(durations["store.get"], 90),
        "store.contains_us_p50": _percentile_us(
            durations["store.contains"], 50
        ),
        "lifetime.erase_batch_calls": _ratio(
            count["lifetime.erase_batch"], curves
        ),
        "lifetime.erase_batch_s": _ratio(
            total["lifetime.erase_batch"], curves
        ),
        "lifetime.mrber_s": _ratio(total["lifetime.mrber"], curves),
        "lifetime.self_s": _ratio(self_s["lifetime.run"], curves),
    }
