"""Single-cell evaluation: one (scheme, PEC, workload) experiment.

``run_workload_cell`` is the unit of work of the Section 7 campaign:
build an SSD at the wear point, precondition to steady state, replay a
synthetic Table 3 workload, and return the performance report. It is a
pure function of its arguments — the same arguments always produce the
same :class:`~repro.ssd.metrics.PerfReport` — which is what makes grid
cells safe to cache on disk and to fan out across worker processes.

A grid point's cells share their scheme-independent work. Every
scheme of one (PEC, workload) point replays the same trace on the same
drive (the grid derives one seed per point), and the canonical
pec -> workload -> scheme order runs a point's cells back to back. So
the cell keys its point once, by its inputs minus the scheme-only ones
(scheme, scheme parameters, erase suspension, engine), and keeps the
last point's :class:`Point`: the trace, the drive's per-block
process-variation draws (:class:`~repro.nand.erase_model.BlockEraseModel`)
and, on the kernel engine, the preconditioning fill's FTL log and end
state and the replay's FTL log (the mapping and GC trajectory, in
:mod:`repro.kernels.cell`), so a later cell of the point runs only its
own erase physics and event loop. Erase suspension changes only the
replay's timing, never its FTL trajectory, so both suspension modes
share one point. The draws depend only on the spec's profile and seed
(and the block keys), so a new point takes over the last point's draw
table when their specs share both, as every point of a grid on one
explicit spec does. This is safe because each part of a point is a pure
function of its key: a cell that fills one in stores exactly what any
other cell of the point would compute, and no report depends on cell
order, process or which cell ran first. Each cell still builds its own
drive, FTL, scheme and RNG streams. The point lives at module level
because no caller-owned object spans a point's cells (a
``GridRunner.run`` per cell, pickled jobs on process workers); it is
one tuple, read once and replaced whole, so it needs no lock: a thread
that loses a race only misses a share.

Scheme keys and workload abbreviations resolve through the plugin
registries (:data:`repro.experiments.SCHEMES` /
:data:`repro.experiments.WORKLOADS`), so registered third-party
schemes and workloads run through the same cell path as the built-ins.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.config import SsdSpec
from repro.errors import ConfigError
from repro.experiments.registry import WORKLOADS
from repro.kernels import check_engine
from repro.rng import derive
from repro.ssd.builder import build_ssd
from repro.ssd.metrics import PerfReport
from repro.telemetry.instruments import kernel_metrics
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.trace import Trace

#: The paper's evaluation PEC setpoints (Figure 14).
PAPER_PEC_POINTS = (500, 2500, 4500)

#: The paper's comparison schemes, in presentation order.
PAPER_SCHEMES = ("baseline", "iispe", "dpes", "aero_cons", "aero")

#: Share of the logical space preconditioning writes, and share the
#: trace addresses. Cell fingerprints carry both
#: (:meth:`~repro.harness.runner.CellJob.payload`).
PRECONDITION_FRACTION = 0.9
FOOTPRINT_FRACTION = 0.85


class Point:
    """One grid point's shared state, each part set by the first cell
    that builds it: ``trace``, the ``draws`` table of the point's drives
    (or the last point's table, passed in when it serves this point
    too), ``fill`` (the fill's log with its end state) and ``replay``
    (the replay's log); see the module docstring."""

    __slots__ = ("trace", "draws", "fill", "replay")

    def __init__(self, draws: Optional[dict] = None):
        self.trace: Optional[Trace] = None
        self.draws: dict = {} if draws is None else draws
        self.fill = self.replay = None


#: The last grid point, as one ``(key, Point)`` tuple.
_POINT: Tuple[Optional[tuple], Optional[Point]] = (None, None)


def run_workload_cell(
    scheme: str,
    pec: int,
    workload: WorkloadProfile | str,
    spec: Optional[SsdSpec] = None,
    requests: int = 1200,
    erase_suspension: bool = True,
    seed: int = 0xAE20,
    mispredict_rate: float = 0.0,
    scheme_params: Optional[Mapping[str, Any]] = None,
    engine: str = "auto",
) -> PerfReport:
    """Run one evaluation cell and return its performance report.

    ``scheme_params`` carries any extra scheme knobs (e.g.
    ``rber_requirement``) to the scheme factory; the historical
    ``mispredict_rate`` argument is folded into it (an explicit
    ``scheme_params['mispredict_rate']`` wins).

    ``engine`` selects how the timed replay executes: ``object`` walks
    the per-transaction event loop, ``kernel`` runs the lean event-loop
    replay (identical report, pinned by tests), and ``auto`` picks the
    kernel whenever the built SSD supports it.
    """
    global _POINT
    check_engine(engine)
    if isinstance(workload, str):
        workload = WORKLOADS.resolve(workload)
    if spec is None:
        spec = SsdSpec.small_test(seed=seed)
    key = (spec, pec, workload, requests, seed)
    held, point = _POINT
    if held != key:
        same_draws = point is not None and (
            held[0].profile, held[0].seed
        ) == (spec.profile, spec.seed)
        point = Point(point.draws if same_draws else None)
        _POINT = (key, point)
    spec = spec.with_scheduler(erase_suspension=erase_suspension)
    params = dict(scheme_params or {})
    params.setdefault("mispredict_rate", mispredict_rate)
    ssd = build_ssd(
        spec, scheme, pec_setpoint=pec, draws=point.draws, **params
    )
    use_kernel = False
    if engine != "object":
        from repro.kernels.cell import (
            kernel_replay_supported,
            precondition_kernel,
            run_trace_kernel,
        )

        use_kernel = kernel_replay_supported(ssd)
        if not use_kernel and engine == "kernel":
            raise ConfigError(
                f"scheme {scheme!r} / SSD configuration has no kernel "
                "replay; use engine='auto' or 'object'"
            )
    footprint_pages = int(spec.logical_pages * PRECONDITION_FRACTION)
    if use_kernel:
        lean = precondition_kernel(ssd, footprint_pages, point=point)
    else:
        ssd.precondition(footprint_pages=footprint_pages)
    trace = point.trace
    if trace is None:
        trace = point.trace = SyntheticTraceGenerator(
            workload,
            footprint_bytes=int(spec.logical_bytes * FOOTPRINT_FRACTION),
            seed=derive(seed, "trace", workload.abbr, pec),
        ).generate(requests)
    kernel_metrics().engine_cells.labels(
        site="cell", engine="kernel" if use_kernel else "object"
    ).inc()
    if use_kernel:
        return run_trace_kernel(
            ssd, trace, workload_name=workload.abbr, lean=lean, point=point
        )
    return ssd.run_trace(trace, workload_name=workload.abbr)
