"""Grid-cell fingerprints: the keys every result store files cells under.

The fingerprint is a SHA-256 over everything that determines a cell's
outcome — the resolved :class:`~repro.config.SsdSpec` (via its
dataclass ``repr``, deterministic because every nested field is a
frozen dataclass of plain values), the scheme, PEC setpoint, workload,
request count, derived cell seed, and the remaining
``run_workload_cell`` knobs — plus a format version. Any change to any
input yields a different key, so one store can be shared across
campaigns and machines without collisions.

Every lookup of a resumed cell computes its fingerprint, so the spec
text is rendered once per ``SsdSpec`` and ``ChipProfile`` instance
(:func:`~repro.nand.chip_types.repr_once`) and reused: a grid point's
jobs share one spec, and profiles are module constants. The memo is
per instance, never per value, because equal specs can render apart:
``controller_overhead_us=3`` and ``3.0`` compare and hash equal, yet
their texts, and so their fingerprints, differ.

Finished cells persist in a
:class:`~repro.campaign.store.ShardedResultStore` (one SQLite table
keyed by fingerprint): the runner consults it before executing a cell
and writes each finished report back immediately, so a campaign killed
halfway resumes from its last completed cell on the next run.
"""

from __future__ import annotations

import hashlib
from typing import Any, Tuple

from repro.config import SsdSpec

#: Bump when the cell-execution semantics or record format change; old
#: records then miss instead of returning stale results.
#: v2: erase-resume dispatch fix and truncated-replay makespan fix
#: changed every cell's report.
CACHE_VERSION = 2


def cell_fingerprint(
    spec: SsdSpec,
    scheme: str,
    pec: int,
    workload: str,
    requests: int,
    seed: int,
    erase_suspension: bool = True,
    footprint_fraction: float = 0.85,
    precondition_fraction: float = 0.9,
    mispredict_rate: float = 0.0,
    scheme_params: Tuple[Tuple[str, Any], ...] = (),
) -> str:
    """Stable hash of every input that determines a cell's report.

    ``scheme_params`` carries any extra scheme knobs beyond
    ``mispredict_rate`` (e.g. ``rber_requirement``) as sorted
    ``(key, value)`` pairs; it is folded into the payload only when
    non-empty, so fingerprints of parameterless cells are unchanged
    across library versions and existing caches stay valid.
    """
    lines = [
        f"version={CACHE_VERSION}",
        f"spec={spec!r}",
        f"scheme={scheme}",
        f"pec={pec}",
        f"workload={workload}",
        f"requests={requests}",
        f"seed={seed}",
        f"erase_suspension={erase_suspension}",
        f"footprint_fraction={footprint_fraction!r}",
        f"precondition_fraction={precondition_fraction!r}",
        f"mispredict_rate={mispredict_rate!r}",
    ]
    if scheme_params:
        lines.append(f"scheme_params={tuple(sorted(scheme_params))!r}")
    payload = "\n".join(lines)
    return hashlib.sha256(payload.encode()).hexdigest()
