"""The result-store abstraction shared by every campaign driver.

:class:`ResultStore` is the structural contract between execution
machinery (:class:`~repro.harness.runner.GridRunner`, the campaign
orchestrator) and result persistence. One implementation ships:
:class:`~repro.campaign.store.ShardedResultStore`, one SQLite table
keyed by fingerprint (the class name predates that layout and stays
because the repo benchmark imports it); both drivers open a directory
path as one through :func:`~repro.campaign.store.open_store`.

The contract is deliberately small: ``get`` returns a report or
``None``, ``put`` persists one atomically, and ``in`` answers exactly
the question resume planners ask — *would* ``get`` *succeed?* An
implementation where ``__contains__`` is looser than ``get`` (e.g.
"the file exists" vs "the entry parses at the current cache version")
breaks crash-resume: the planner skips a cell it cannot actually load.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable


@runtime_checkable
class ResultStore(Protocol):
    """Keyed, atomic persistence of finished campaign results.

    Keys are job fingerprints (:class:`~repro.harness.cache.Job`) of
    grid cells and lifetime curves; the stored value is the matching
    result type
    (:class:`~repro.ssd.metrics.PerfReport` /
    :class:`~repro.lifetime.simulator.LifetimeCurve` — see
    :mod:`repro.harness.results` for the family dispatch).
    Implementations must keep the membership/retrievability invariant:
    ``key in store`` is true iff ``store.get(key)`` returns a result.
    """

    def get(self, key: str) -> Optional[Any]:
        """The stored result for ``key``, or ``None`` on a miss."""
        ...

    def put(
        self,
        key: str,
        report: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Atomically persist one finished result under ``key``."""
        ...

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would return a report for ``key``."""
        ...
