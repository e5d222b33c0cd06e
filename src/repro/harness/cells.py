"""Single-cell evaluation: one (scheme, PEC, workload) experiment.

``run_workload_cell`` is the unit of work of the Section 7 campaign:
build an SSD at the wear point, precondition to steady state, replay a
synthetic Table 3 workload, and return the performance report. It is a
pure function of its arguments — the same arguments always produce the
same :class:`~repro.ssd.metrics.PerfReport` — which is what makes grid
cells safe to cache on disk and to fan out across worker processes.

A grid point's cells share their scheme-independent setup. Every
scheme of one (PEC, workload) point replays the same trace on the same
drive (the grid derives one seed per point), and the canonical
pec -> workload -> scheme order runs a point's cells back to back. So
consecutive cells share, through one-entry module-level memos, the
trace (``_TRACE`` below, keyed by profile, footprint bytes, derived
seed and request count), the drive's per-block process-variation draws
(:class:`~repro.nand.erase_model.BlockEraseModel`) and, on the kernel
engine, the preconditioned FTL layout and the replay's FTL log (the
mapping and GC trajectory, in :mod:`repro.kernels.cell`), so such a
cell runs only its own erase physics and event loop. This is safe
because each share is a pure function of its key: the key holds every
input of the step it memoises, so a hit returns exactly what a miss
would compute, and no
report depends on cell order, process or which cell ran first. Each
cell still builds its own drive, FTL, scheme and RNG streams. The
memos live at module level because no caller-owned object spans a
point's cells (a ``GridRunner.run`` per cell, pickled jobs on process
workers); each is one tuple, read once and replaced whole, so they need
no lock: a thread that loses a race only misses a share.

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

#: The last synthesised trace, as one ``((profile, footprint bytes,
#: derived seed, requests), trace)`` tuple. Neither replay mutates it.
_TRACE: Tuple[Optional[tuple], Optional[Trace]] = (None, None)


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
    global _TRACE
    check_engine(engine)
    if isinstance(workload, str):
        workload = WORKLOADS.resolve(workload)
    if spec is None:
        spec = SsdSpec.small_test(seed=seed)
    spec = spec.with_scheduler(erase_suspension=erase_suspension)
    params = dict(scheme_params or {})
    params.setdefault("mispredict_rate", mispredict_rate)
    ssd = build_ssd(spec, scheme, pec_setpoint=pec, **params)
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
        # No write-back: the replay kernel continues from the
        # preconditioned lean state, and the drive is dropped on return,
        # so its page states, mapping and allocators are never restored.
        lean = precondition_kernel(ssd, footprint_pages, write_back=False)
    else:
        ssd.precondition(footprint_pages=footprint_pages)
    footprint_bytes = int(spec.logical_bytes * FOOTPRINT_FRACTION)
    trace_seed = derive(seed, "trace", workload.abbr, pec)
    trace_key = (workload, footprint_bytes, trace_seed, requests)
    cached_key, trace = _TRACE
    if cached_key != trace_key:
        trace = SyntheticTraceGenerator(
            workload, footprint_bytes=footprint_bytes, seed=trace_seed
        ).generate(requests)
        _TRACE = (trace_key, trace)
    kernel_metrics().engine_cells.labels(
        site="cell", engine="kernel" if use_kernel else "object"
    ).inc()
    if use_kernel:
        return run_trace_kernel(
            ssd, trace, workload_name=workload.abbr, lean=lean,
            write_back=False,
        )
    return ssd.run_trace(trace, workload_name=workload.abbr)
