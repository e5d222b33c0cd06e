"""Campaign service: result store + supervised orchestrator.

This package scales the evaluation harness from "a grid in one
process" to "a campaign of millions of cells spread over worker
processes with crash-resume". Four layers:

* :mod:`repro.campaign.store` — :class:`ShardedResultStore`, the
  SQLite result store every driver persists to (the grid runner, the
  experiment API, and lifetime comparisons open a ``cache=`` path
  through the same :func:`open_store` as the orchestrator). The class
  keeps its historical name because the repo benchmark imports it;
* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the declarative
  (schemes x PECs x workloads) campaign description,
  :meth:`GridRunner.plan`-compatible; plus :func:`load_campaign_file`,
  which dispatches on a ``family`` key so a campaign file carries grid
  cells (``"cell"``) or lifetime curves (``"lifetime"``, a
  :class:`~repro.lifetime.spec.LifetimeSpec`). Every spec class shares
  one JSON codec and one version
  (:class:`~repro.experiments.spec.SpecBase`,
  :data:`~repro.experiments.spec.SPEC_VERSION`) and one file reader,
  so a wrongly typed field is a ``ConfigError`` naming the field;
* :mod:`repro.campaign.orchestrator` — :class:`CampaignOrchestrator`,
  which runs pending cells in this process or on worker processes and
  streams each finished cell into the store the moment it completes;
* :mod:`repro.campaign.supervisor` — :class:`CellSupervisor`, the
  fault-tolerance layer under the orchestrator: per-cell wall-clock
  timeouts, retry with seeded exponential backoff, worker replacement
  when one dies, and poison-cell quarantine (one row per given-up
  cell in the store's ``quarantine`` table); and
  :class:`~repro.campaign.supervisor.JobRun`, the one resume → dedupe
  → run → persist loop that ``GridRunner.execute_jobs`` shares with
  the orchestrator.

``python -m repro campaign run|status|ls|compact`` drives all of it
from the shell; ``campaign run --cell-timeout/--max-retries/--on-poison``
expose the supervision knobs and ``--fault-plan`` arms deterministic
chaos (:mod:`repro.faults`). ``status``, ``ls`` and ``compact`` only
open an existing store: on any other directory they exit 2 with
``error: not a result store: DIR``.

Multi-writer safety: the database runs in WAL mode with a busy
timeout, so N orchestrator processes (or ``campaign run`` racing
``campaign compact``) share one store root without losing records
(see :mod:`repro.campaign.store`).

Store layout
============

::

    <root>/
        results.sqlite          tables ``results`` and ``quarantine``
        results.sqlite-wal      write-ahead log (while a handle is open)
        results.sqlite-shm      WAL index (while a handle is open)

Each row of ``results`` is one finished result, keyed by its job
fingerprint::

    key      TEXT PRIMARY KEY   cell or lifetime-job fingerprint
    version  INTEGER            CACHE_VERSION the row was written under
    family   TEXT               result family ("cell", "lifetime")
    ts       REAL               epoch seconds of the last put
    meta     TEXT               JSON: what ``campaign ls`` describes
    report   BLOB               the result's compact JSON bytes,
                                float lists packed (below)
    crc      INTEGER            CRC32 over exactly those report bytes
    writes   INTEGER            puts since the last gc or compaction

In ``report``, each non-empty list of floats (a cell's latency
samples, a curve's mean RBERs) is stored as a one-key object
``{"<f8": "..."}`` holding base64 of the list's little-endian IEEE-754
float64 bytes; every other value is plain JSON. A ``get`` unpacks
them bit for bit, so the served result equals the one put. Rows
written before packing, with plain float lists, are served as they
are. An older checkout reads a packed row as a miss and recomputes it
(its put then rewrites the row in plain JSON).

A ``put`` is one UPSERT (committed on return; a re-put of a key
overwrites its row and bumps ``writes``, which ``StoreStats.superseded``
sums). A ``get`` or ``in`` is one primary-key SELECT that serves the
row only when its version is current and its CRC matches, so
membership and retrievability agree by construction.

Each row of ``quarantine`` is one cell a campaign gave up on after
exhausting its retries: ``key``, ``cell`` (its index in the plan),
``attempts``, ``reason``, ``error``, ``meta`` (JSON) and ``ts``. The
table is created on open when missing, and compaction leaves it alone.

Compaction (``gc``/``compact``, surfaced as ``python -m repro campaign
compact``, whose ``--max-entries``/``--older-than`` knobs select
``gc``) is one policy ``DELETE`` transaction that also resets
``writes``; ``compact`` then runs ``VACUUM``. A crash before ``COMMIT``
leaves nothing behind: the next open discards the uncommitted WAL
tail.

Rows written under an older
:data:`~repro.harness.cache.CACHE_VERSION` read as misses (and are
dropped at compaction). A directory in the earlier JSONL layout
(``store.json`` plus ``<prefix>/seg-*.jsonl``) is imported on first
open: the newest healthy record per key, then the old files are
removed. One-JSON-file-per-cell cache directories from still older
library versions are not read; their cells recompute once.
"""

from repro.campaign.orchestrator import (
    CampaignOrchestrator,
    CampaignProgress,
    CampaignResult,
    CampaignStats,
    run_campaign,
)
from repro.campaign.spec import (
    CAMPAIGN_FAMILIES,
    CampaignSpec,
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
    "RetryPolicy",
    "ShardedResultStore",
    "StoreStats",
    "load_campaign_file",
    "open_store",
    "run_campaign",
]
