"""Vectorized batch kernels for the simulator's hot paths.

The package holds the structure-of-arrays block state
(:class:`BlockArrayState`) and one batch erase kernel per built-in
scheme. Schemes opt in by overriding
:meth:`repro.erase.scheme.EraseScheme.batch_kernel`; the lifetime
simulator resolves its engine through :func:`resolve_kernel` and
falls back to the per-block object path when a scheme has no kernel
(third-party schemes keep working unchanged). The characterization
campaigns always measure through the m-ISPE kernel.

:mod:`repro.kernels.cell` adds the grid-cell replay kernel behind the
``engine`` knob of :func:`repro.harness.cells.run_workload_cell`:
``precondition_kernel`` / ``run_trace_kernel`` replace the
per-transaction object event loop with a report-identical lean replay,
gated by ``kernel_replay_supported``. Those three are re-exported here
lazily (the cell module pulls in the full SSD stack, which importers
of just ``ENGINES`` should not pay for).
"""

from repro.errors import ConfigError
from repro.kernels.erase import (
    AeroBatchKernel,
    BaselineBatchKernel,
    BatchEraseKernel,
    BatchEraseResult,
    DpesBatchKernel,
    IispeBatchKernel,
    KernelStats,
    MispeBatchKernel,
)
from repro.kernels.state import BlockArrayState

#: Valid values of the campaign ``engine`` knob: ``auto`` prefers the
#: vectorized batch kernel and falls back to the object path for
#: schemes without one; ``object``/``kernel`` force the respective path.
ENGINES = ("auto", "object", "kernel")


def check_engine(engine: str) -> str:
    """Return ``engine``; :class:`~repro.errors.ConfigError` unless it
    is one of :data:`ENGINES`. Every engine knob is checked here."""
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}"
        )
    return engine


def resolve_kernel(scheme, engine: str, scheme_name: str | None = None):
    """Validate ``engine`` and resolve the kernel the campaign should use.

    Returns ``None`` for the object path (``engine="object"``, or
    ``"auto"`` with a kernel-less scheme); raises
    :class:`~repro.errors.ConfigError` for unknown engine values and
    for ``engine="kernel"`` on a scheme that provides no kernel. The
    lifetime simulator's engine knob resolves here.
    """
    if check_engine(engine) == "object":
        return None
    kernel = kernel_for_scheme(scheme)
    if engine == "kernel" and kernel is None:
        name = scheme_name or getattr(scheme, "name", repr(scheme))
        raise ConfigError(
            f"scheme {name!r} provides no batch kernel; "
            "use engine='object' (or 'auto' to fall back)"
        )
    return kernel


def kernel_for_scheme(scheme) -> "BatchEraseKernel | None":
    """The scheme's batch kernel, or ``None`` for object-path-only schemes.

    Any object with a callable ``batch_kernel`` attribute participates;
    everything else (including third-party registry schemes predating
    the kernel subsystem) falls back to the object path.
    """
    factory = getattr(scheme, "batch_kernel", None)
    if not callable(factory):
        return None
    return factory()


#: Lazily re-exported from :mod:`repro.kernels.cell` (PEP 562).
_CELL_EXPORTS = (
    "kernel_replay_supported",
    "precondition_kernel",
    "run_trace_kernel",
)


def __getattr__(name: str):
    if name in _CELL_EXPORTS:
        from repro.kernels import cell

        return getattr(cell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AeroBatchKernel",
    "BaselineBatchKernel",
    "BatchEraseKernel",
    "BatchEraseResult",
    "BlockArrayState",
    "DpesBatchKernel",
    "ENGINES",
    "IispeBatchKernel",
    "KernelStats",
    "MispeBatchKernel",
    "check_engine",
    "kernel_for_scheme",
    "kernel_replay_supported",
    "precondition_kernel",
    "resolve_kernel",
    "run_trace_kernel",
]
