"""Lifetime evaluation: P/E cycling to failure per erase scheme (§7.2).

Two entry styles share one execution path: the imperative
:func:`compare_schemes` / sensitivity sweeps, and the declarative
:class:`LifetimeSpec`, which resolves to cacheable
:class:`LifetimeJob` work orders that run through the same
:class:`~repro.harness.runner.GridRunner`/:class:`~repro.harness.
store.ResultStore` machinery (and the campaign orchestrator) as
grid-cell replays.
"""

from repro.lifetime.simulator import LifetimeCurve, LifetimeSimulator
from repro.lifetime.comparison import (
    SchemeComparison,
    compare_schemes,
    misprediction_sensitivity,
    requirement_sensitivity,
)
from repro.lifetime.spec import (
    LifetimeJob,
    LifetimeSpec,
    load_lifetime_file,
)

__all__ = [
    "LifetimeCurve",
    "LifetimeJob",
    "LifetimeSimulator",
    "LifetimeSpec",
    "SchemeComparison",
    "compare_schemes",
    "load_lifetime_file",
    "misprediction_sensitivity",
    "requirement_sensitivity",
]
