"""Result-family dispatch for the persistent store.

:class:`~repro.campaign.store.ShardedResultStore` persists each result
as the JSON bytes of one table row. Historically every record held a
grid-cell :class:`~repro.ssd.metrics.PerfReport`; the unified campaign
surface also stores lifetime-family :class:`~repro.lifetime.simulator.
LifetimeCurve` results. Every row names its ``family`` (records of the
earlier JSONL layout without one import as cells — no cache or store
version bump), and this module is the single place a family resolves
to its (de)serializer.

Lifetime types import lazily: the harness package must stay importable
without pulling the lifetime simulator stack, and the lifetime package
itself imports the harness.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigError
from repro.ssd.metrics import PerfReport

#: Grid-cell replay results (:class:`PerfReport`).
FAMILY_CELL = "cell"
#: Lifetime-curve results (:class:`LifetimeCurve`).
FAMILY_LIFETIME = "lifetime"

RESULT_FAMILIES = (FAMILY_CELL, FAMILY_LIFETIME)


def result_family(result: Any) -> str:
    """The family discriminator a result persists under."""
    if isinstance(result, PerfReport):
        return FAMILY_CELL
    from repro.lifetime.simulator import LifetimeCurve

    if isinstance(result, LifetimeCurve):
        return FAMILY_LIFETIME
    raise ConfigError(
        f"cannot store result of type {type(result).__name__}; "
        f"known families: {', '.join(RESULT_FAMILIES)}"
    )


def result_to_json_dict(result: Any) -> Mapping[str, Any]:
    """Serialize a result of any family to plain JSON types."""
    result_family(result)  # fail fast on foreign types
    return result.to_json_dict()


def result_from_json_dict(family: str, data: Mapping[str, Any]) -> Any:
    """Deserialize a stored record's payload by family.

    Raises :class:`ConfigError` for unknown families; store readers
    treat that (like any other malformed payload) as a miss.
    """
    if family == FAMILY_CELL:
        return PerfReport.from_json_dict(data)
    if family == FAMILY_LIFETIME:
        from repro.lifetime.simulator import LifetimeCurve

        return LifetimeCurve.from_json_dict(data)
    raise ConfigError(
        f"unknown result family {family!r}; "
        f"known families: {', '.join(RESULT_FAMILIES)}"
    )
