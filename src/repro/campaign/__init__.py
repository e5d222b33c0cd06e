"""Campaign service: sharded result store + mixed-pool orchestrator.

This package scales the evaluation harness from "a grid in one
process" to "a campaign of millions of cells sharded across processes
and threads with crash-resume". Three layers:

* :mod:`repro.campaign.store` — :class:`ShardedResultStore`, the
  chunked append-only result store every driver persists to (the grid
  runner, the experiment API, and lifetime comparisons open a
  ``cache=`` path through the same :func:`open_store` as the
  orchestrator);
* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the declarative
  (schemes x PECs x workloads) campaign description,
  :meth:`GridRunner.plan`-compatible; plus :class:`MixedCampaignSpec`
  and :func:`campaign_spec_from_dict`, which dispatch on a ``family``
  key so one campaign file carries grid cells (``"cell"``), lifetime
  curves (``"lifetime"``, a :class:`~repro.lifetime.spec.LifetimeSpec`),
  or both (``"mixed"``). Every spec class shares one JSON codec and
  one version (:class:`~repro.experiments.spec.SpecBase`,
  :data:`~repro.experiments.spec.SPEC_VERSION`) and one file reader,
  so a wrongly typed field is a ``ConfigError`` naming the field;
* :mod:`repro.campaign.orchestrator` — :class:`CampaignOrchestrator`,
  which fans pending cells out over a mixed process+thread worker
  pool and streams each finished cell into the store the moment it
  completes;
* :mod:`repro.campaign.supervisor` — :class:`CellSupervisor`, the
  fault-tolerance layer under the orchestrator: per-cell wall-clock
  timeouts, retry with seeded exponential backoff, pool rebuild when
  a worker dies, graceful engine degradation, and poison-cell
  quarantine (:mod:`repro.campaign.quarantine`, one JSONL record per
  given-up cell next to the store).

``python -m repro campaign run|status|ls|compact`` drives all of it
from the shell; ``campaign run --cell-timeout/--max-retries/--on-poison``
expose the supervision knobs and ``--fault-plan`` arms deterministic
chaos (:mod:`repro.faults`).

Multi-writer safety: the store takes a shared ``flock`` for appends
and an exclusive one for compaction/gc, and bumps a generation marker
on every rewrite — N orchestrator processes can share one store root
without losing records (see :mod:`repro.campaign.store`).

Store layout
============

One JSON file per cell collapses past a few thousand cells —
directory scans, inode pressure, one ``os.replace`` per cell. The
store instead appends records to a bounded number of JSONL segment
files, sharded by fingerprint prefix::

    <root>/
        store.json              manifest: {"layout", "prefix_len",
                                           "segment_max_bytes"}
        2f/                     shard = first prefix_len hex digits
            seg-000000.jsonl      of the cell fingerprint
            seg-000001.jsonl
        88/
            seg-000000.jsonl

Each line of a segment is one self-contained record::

    {"version": CACHE_VERSION, "key": "<fingerprint>", "ts": <epoch>,
     "meta": {...}, "report": {...}, "crc": <CRC32 of key + report>}

Non-cell results (lifetime curves) additionally carry a top-level
``"family"`` key naming the result family; cell records omit it, so
every record written before families existed still reads back
byte-identically as a cell.

Append-only semantics: a ``put`` appends one line (a single
``O_APPEND`` write, atomic on POSIX) to the shard's highest-numbered
segment, rolling to a fresh segment once the active one exceeds
``segment_max_bytes``. Within a shard, the *last* record for a key
wins, so overwrites never rewrite history and a torn final line (a
crash mid-append) is skipped on load without losing earlier records.

Compaction (``gc``/``compact``, surfaced as ``python -m repro campaign
compact``, whose ``--max-entries``/``--older-than`` knobs select
``gc``) rewrites a shard's live records — the newest healthy record
per surviving key — into one fresh segment *numbered after* every
existing segment, then unlinks the old ones; a crash between the two
steps leaves duplicate records whose last-wins resolution is
unchanged, so compaction is crash-safe without a directory-wide lock.

Records carry :data:`~repro.harness.cache.CACHE_VERSION`; entries
written under an older version read as misses (and are dropped at
compaction). One-JSON-file-per-cell cache directories from earlier
library versions are not read; their cells recompute once.
"""

from repro.campaign.orchestrator import (
    CampaignOrchestrator,
    CampaignProgress,
    CampaignResult,
    CampaignStats,
    cell_engine_kind,
    run_campaign,
)
from repro.campaign.quarantine import Quarantine
from repro.campaign.spec import (
    CAMPAIGN_FAMILIES,
    CampaignSpec,
    MixedCampaignSpec,
    campaign_spec_from_dict,
    load_campaign_file,
)
from repro.campaign.store import (
    CacheEntry,
    CompactionStats,
    GcResult,
    ShardedResultStore,
    StoreStats,
    open_store,
)
from repro.campaign.supervisor import (
    CellOutcome,
    CellSupervisor,
    RetryPolicy,
)

__all__ = [
    "CAMPAIGN_FAMILIES",
    "CampaignOrchestrator",
    "CampaignProgress",
    "CampaignResult",
    "CampaignSpec",
    "CampaignStats",
    "CacheEntry",
    "CellOutcome",
    "CellSupervisor",
    "CompactionStats",
    "GcResult",
    "MixedCampaignSpec",
    "Quarantine",
    "RetryPolicy",
    "ShardedResultStore",
    "StoreStats",
    "campaign_spec_from_dict",
    "cell_engine_kind",
    "load_campaign_file",
    "open_store",
    "run_campaign",
]
