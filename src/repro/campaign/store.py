"""The result store: one SQLite table of finished results.

:class:`ShardedResultStore` is the one implementation of the
:class:`~repro.harness.store.ResultStore` contract: the grid runner,
the experiment API, the lifetime comparisons, and the campaign
orchestrator all persist through it, and :func:`open_store` is the
single place a directory path becomes a store. The class keeps its
historical name because the repo benchmark imports it. Every result is
one row of ``<root>/results.sqlite`` (layout documented in
:mod:`repro.campaign`): a ``put`` is one UPSERT, and a ``get`` or
``in`` is one indexed SELECT. This module alone knows the on-disk
format; :class:`CacheEntry` and :class:`GcResult` describe its rows to
``campaign ls`` and ``campaign compact``. Cells a campaign gave up on
are rows of a second table, ``quarantine``
(:meth:`ShardedResultStore.quarantine`).

Durability and concurrency: the database runs in WAL mode with
``synchronous=NORMAL`` and a busy timeout, so threads and processes
share one store, readers never block the writer, and a writer waits
its turn instead of failing. A committed put survives a process crash
(not a power loss); a crash mid-transaction leaves an uncommitted WAL
tail that the next open discards. Each handle opens its connection
lazily, once per process id, because a connection must not cross a
fork, and closes it when the handle is dropped.

Record format: a row's ``report`` is one compact-JSON BLOB in which
each non-empty list of floats is packed as ``{"<f8": base64 of its
little-endian float64 bytes}`` (:func:`_encode`); :func:`_decode`
unpacks each, bit for bit, into an ``array("d")`` through a JSON
object hook, and serves rows written before packing (plain float
lists) as they are. Packing shrinks a grid-cell record by ~40% and
replaces parsing ~900 float literals per cell with one base64 decode;
the decoded samples stay packed, since
:class:`~repro.ssd.metrics.LatencyRecorder` holds an ``array("d")``
and copies the decoded one by memcpy, so no Python float is built per
sample. The canonical JSON of a result (``to_json_dict``, which
digests hash) is unchanged. An older checkout reads a packed row as a
miss and recomputes it.

Integrity: each row carries a CRC32 over its stored report bytes.
Rows whose CRC no longer matches (bit rot, a torn write) or that were
written under another :data:`~repro.harness.cache.CACHE_VERSION` read
as misses, are counted in :class:`StoreStats` and the
``repro_store_bad_entries_total`` telemetry series, and are deleted at
compaction.

Migration: a directory holding the earlier JSONL layout (``store.json``
plus ``<prefix>/seg-*.jsonl`` segments) is imported on first open, in
the transaction that creates the table. The import keeps the newest
healthy record per key, verifying its old CRC where it has one, and
then removes the old files; no finished result recomputes.

Fault injection: a :class:`~repro.faults.FaultInjector` can be armed
on the store (``fault_injector=``); its hooks fire at the put and
compaction boundaries documented in :mod:`repro.faults`, behind a
one-branch no-op default.
"""

from __future__ import annotations

import binascii
import contextlib
import json
import os
import sqlite3
import sys
import threading
import time
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.faults import FaultInjector, NO_FAULTS
from repro.harness.cache import CACHE_VERSION
from repro.harness.results import (
    FAMILY_CELL, result_family, result_from_json_dict, result_to_json_dict,
)
from repro.harness.store import ResultStore
from repro.telemetry import get_default_registry
from repro.telemetry.instruments import store_metrics

#: The database file inside a store directory.
DB_NAME = "results.sqlite"

#: Manifest of the earlier JSONL layout, imported on first open, and
#: the layout's other top-level files, removed after the import.
_LEGACY_MANIFEST = "store.json"
_LEGACY_FILES = ("store.lock", "store.gen", _LEGACY_MANIFEST)

#: Seconds a connection waits for another writer before failing.
_BUSY_TIMEOUT_S = 60.0

_SCHEMA = (
    "CREATE TABLE results (key TEXT PRIMARY KEY, version INTEGER NOT NULL,"
    " family TEXT NOT NULL, ts REAL NOT NULL, meta TEXT NOT NULL,"
    " report BLOB NOT NULL, crc INTEGER NOT NULL, writes INTEGER NOT NULL)"
)
_INSERT = "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, 1)"
_UPSERT = _INSERT + (
    " ON CONFLICT (key) DO UPDATE SET version = excluded.version,"
    " family = excluded.family, ts = excluded.ts, meta = excluded.meta,"
    " report = excluded.report, crc = excluded.crc, writes = writes + 1"
    " RETURNING writes"
)
_SELECT_ONE = "SELECT version, report, crc, family FROM results WHERE key = ?"
#: Cells given up after exhausting their retries, one row each.
_QUARANTINE_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS quarantine (key TEXT NOT NULL,"
    " cell INTEGER NOT NULL, attempts INTEGER NOT NULL, reason TEXT NOT NULL,"
    " error TEXT NOT NULL, meta TEXT NOT NULL, ts REAL NOT NULL)"
)
_QUARANTINE_FIELDS = ("key", "index", "attempts", "reason", "error", "meta",
                      "ts")
_SELECT_ALL = (
    "SELECT key, version, report, crc, family, writes, ts, meta FROM results"
)


#: Key of the one-key JSON object a packed float list is stored as. No
#: result's JSON form holds a one-key object with a string value, so
#: the decoder cannot mistake one for a packed list.
_PACKED = "<f8"
#: Packed floats are little-endian whatever the host byte order.
_SWAP = sys.byteorder != "little"


def _pack(value: Any) -> Any:
    """``value`` with each non-empty list of floats replaced by
    ``{"<f8": base64 of its little-endian IEEE-754 float64 bytes}``;
    lists holding anything else (ints, bools, mixed) stay lists."""
    if isinstance(value, dict):
        return {key: _pack(item) for key, item in value.items()}
    if isinstance(value, list):
        if value and set(map(type, value)) == {float}:
            floats = array("d", value)
            if _SWAP:
                floats.byteswap()
            return {_PACKED: binascii.b2a_base64(
                floats.tobytes(), newline=False).decode("ascii")}
        return [_pack(item) for item in value]
    return value


def _unpack(obj: Dict[str, Any]) -> Any:
    """``json.loads`` object hook: a packed float list back to an
    ``array("d")`` of the same floats, bit for bit (no Python float per
    sample); every other object as it is."""
    if len(obj) == 1 and type(obj.get(_PACKED)) is str:
        floats = array("d", binascii.a2b_base64(obj[_PACKED]))
        if _SWAP:
            floats.byteswap()
        return floats
    return obj


def _encode(report_dict: Any) -> bytes:
    """The stored form of a report: compact JSON bytes, float lists
    packed (:func:`_pack`)."""
    return json.dumps(
        _pack(report_dict), separators=(",", ":")
    ).encode("utf-8")


#: One decoder for every row: ``json.loads`` with a hook would build a
#: new decoder per call.
_DECODER = json.JSONDecoder(object_hook=_unpack)


def _decode(payload: bytes) -> Any:
    """A report's JSON form from its stored (UTF-8) bytes, each packed
    float list as an ``array("d")``; rows with plain float lists decode
    as they are."""
    return _DECODER.decode(payload.decode("utf-8"))


def _row_state(version: int, report: bytes, crc: int) -> Optional[str]:
    """``None`` for a servable row, else why it reads as a miss:
    ``"stale"`` (another CACHE_VERSION), ``"torn"`` (report bytes cut
    short) or ``"checksum"`` (whole JSON that fails its CRC)."""
    if version != CACHE_VERSION:
        return "stale"
    if zlib.crc32(report) == crc:
        return None
    try:
        json.loads(report)
    except ValueError:
        return "torn"
    return "checksum"


def _is_legacy(root: Path) -> bool:
    """Whether ``root`` holds a store in the earlier JSONL layout."""
    try:
        manifest = json.loads((root / _LEGACY_MANIFEST).read_text("utf-8"))
        return manifest.get("layout") == 1
    except (OSError, ValueError, AttributeError):
        return False


def is_store(root: str | Path) -> bool:
    """Whether ``root`` holds a result store (or one to import)."""
    return (Path(root) / DB_NAME).is_file() or _is_legacy(Path(root))


def _import_legacy(root: Path, db: sqlite3.Connection) -> None:
    """Copy the newest healthy record per key of a JSONL-layout store.

    Torn lines, stale-version records and records failing their old
    CRC (over the canonical ``[key, report]`` serialization) are
    skipped, so an older healthy record of the same key survives them.
    """
    latest: Dict[str, Dict[str, Any]] = {}
    for segment in sorted(root.glob("*/seg-*.jsonl")):
        for line in segment.read_bytes().split(b"\n"):
            try:
                record = json.loads(line)
                key, report = record["key"], record["report"]
            except (ValueError, TypeError, KeyError):
                continue
            canonical = json.dumps([key, report], sort_keys=True,
                                   separators=(",", ":"))
            crc = zlib.crc32(canonical.encode("utf-8"))
            if record.get("version") == CACHE_VERSION and (
                    record.get("crc", crc) == crc):
                latest[key] = record
    for key, record in latest.items():
        payload = _encode(record["report"])
        db.execute(_INSERT, (
            key, CACHE_VERSION, record.get("family", FAMILY_CELL),
            float(record.get("ts") or 0.0),
            json.dumps(record.get("meta") or {}), payload,
            zlib.crc32(payload),
        ))


def _remove_legacy(root: Path) -> None:
    """Delete the JSONL layout's files once their import committed."""
    segments = list(root.glob("*/seg-*.jsonl*"))
    for path in segments + [root / name for name in _LEGACY_FILES]:
        path.unlink(missing_ok=True)
    for shard in {path.parent for path in segments}:
        with contextlib.suppress(OSError):
            shard.rmdir()


def _connect(root: Path) -> sqlite3.Connection:
    """Open the store's database, creating (and importing) it once."""
    db = sqlite3.connect(root / DB_NAME, timeout=_BUSY_TIMEOUT_S,
                         isolation_level=None, check_same_thread=False)
    try:
        db.execute("PRAGMA journal_mode=WAL")
    except sqlite3.DatabaseError as exc:
        db.close()
        raise ConfigError(f"{root / DB_NAME} is not a store: {exc}") from exc
    db.execute("PRAGMA synchronous=NORMAL")
    db.execute("BEGIN IMMEDIATE")
    with db:
        fresh = db.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'results'"
        ).fetchone() is None
        if fresh:
            db.execute(_SCHEMA)
        db.execute(_QUARANTINE_SCHEMA)
        legacy = fresh and _is_legacy(root)
        if legacy:
            _import_legacy(root, db)
    if legacy:
        _remove_legacy(root)
    return db


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored key (for ``campaign ls`` / ``gc``).

    ``corrupt`` marks rows that cannot be served (torn bytes, failed
    checksum); ``stale`` marks rows written under a different
    :data:`CACHE_VERSION`. Both read as misses at run time and are
    prime garbage-collection candidates.
    """

    key: str
    path: Path
    mtime: float
    size: int
    meta: Dict[str, Any] = field(default_factory=dict)
    corrupt: bool = False
    stale: bool = False

    def age_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the entry was written."""
        return max(0.0, (time.time() if now is None else now) - self.mtime)

    def summary(self) -> str:
        """One-line human summary of what experiment the entry holds."""
        if self.corrupt:
            return "<corrupt entry>"
        meta = self.meta
        if meta.get("family") == "lifetime":
            parts = [
                str(meta.get("scheme", "?")),
                f"profile={meta.get('profile', '?')}",
                f"blocks={meta.get('block_count', '?')}",
                f"seed={meta.get('seed', '?')}",
                "[lifetime]",
            ]
            if self.stale:
                parts.append("[stale version]")
            return " ".join(parts)
        parts = [
            str(meta.get("scheme", "?")),
            f"pec={meta.get('pec', '?')}",
            str(meta.get("workload", "?")),
            f"requests={meta.get('requests', '?')}",
            f"seed={meta.get('seed', '?')}",
        ]
        if meta.get("scheme_params"):
            parts.append(f"params={meta['scheme_params']}")
        if self.stale:
            parts.append("[stale version]")
        return " ".join(parts)


@dataclass(frozen=True)
class GcResult:
    """Outcome of one :meth:`ShardedResultStore.gc` pass."""

    removed: Tuple[CacheEntry, ...] = ()
    kept: int = 0

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    @property
    def removed_bytes(self) -> int:
        return sum(entry.size for entry in self.removed)


@dataclass(frozen=True)
class StoreStats:
    """One snapshot of the store's physical and logical shape."""

    keys: int            # retrievable entries (healthy, current-version)
    stale: int           # rows written under another CACHE_VERSION
    corrupt: int         # rows whose whole report fails its CRC32
    corrupt_lines: int   # rows whose report bytes were cut short (torn)
    superseded: int      # puts overwritten by a later put of the same key
    checksum_failed: int  # rows seen with a CRC32 mismatch on whole JSON
    data_bytes: int      # database size, pages in use and free
    #: Retrievable entries per result family, as sorted (family, count)
    #: pairs (``campaign status``).
    families: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one :meth:`ShardedResultStore.compact` pass."""

    records_dropped: int   # superseded writes + rows deleted
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


class ShardedResultStore:
    """One SQLite table of finished results, keyed by fingerprint.

    Satisfies :class:`~repro.harness.store.ResultStore`; the grid
    runner (``cache=``) and the campaign orchestrator open one from a
    path through :func:`open_store`. Every public method is
    thread-safe.
    """

    def __init__(self, root: str | Path,
                 fault_injector: Optional[FaultInjector] = None):
        """Open (or create) the store rooted at ``root``.

        ``fault_injector`` arms deterministic faults at the
        put/compaction boundaries (chaos testing only).
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / DB_NAME
        self._faults = fault_injector or NO_FAULTS
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._bound: Tuple[Any, Any] = (None, None)

    def __del__(self) -> None:
        # A connection lives in a reference cycle with its statement
        # cache, so it would stay open until the next GC pass; one
        # inherited across fork belongs to the parent.
        conn = getattr(self, "_conn", None)
        if conn is not None and self._conn_pid == os.getpid():
            conn.close()

    def _db(self) -> sqlite3.Connection:
        """This process's connection; callers hold ``_lock``."""
        if self._conn_pid != os.getpid():
            self._conn = _connect(self.root)
            self._conn_pid = os.getpid()
        return self._conn

    def _metrics(self) -> Any:
        """The store handles of the current default registry, bound
        again only when that registry changes (``scoped_registry``)."""
        bound, registry = self._bound, get_default_registry()
        if bound[0] is not registry:
            bound = self._bound = (registry, store_metrics("sharded", registry))
        return bound[1]

    # --- ResultStore contract -----------------------------------------------

    def _select(self, key: str) -> Optional[Tuple[int, bytes, int, str]]:
        with self._lock:
            return self._db().execute(_SELECT_ONE, (key,)).fetchone()

    def __contains__(self, key: str) -> bool:
        """Membership matches retrievability, as the contract demands."""
        row = self._select(key)
        return row is not None and _row_state(*row[:3]) is None

    def get(self, key: str) -> Optional[Any]:
        """The stored result for ``key``; None on any miss.

        Deserialization dispatches on the row's ``family``, so one
        store holds grid-cell reports and lifetime curves side by side.
        """
        metrics = self._metrics()
        row = self._select(key)
        report = None
        if row is not None:
            state = _row_state(*row[:3])
            if state is not None:
                metrics.bad_entry(state).inc()
            else:
                with contextlib.suppress(
                    ValueError, KeyError, TypeError, ConfigError
                ):
                    report = result_from_json_dict(row[3], _decode(row[1]))
        metrics.get_outcome(hit=report is not None).inc()
        return report

    def put(self, key: str, report: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Persist one finished result; one UPSERT, committed on return."""
        family = result_family(report)
        payload = _encode(result_to_json_dict(report))
        metrics = self._metrics()
        with self._lock:
            # Fault hooks (no-op branch by default): a crash-flavoured
            # fault raises InjectedFault before anything is durable; a
            # corruption fault damages the bytes or CRC about to land.
            ordinal = self._faults.before_put(key)
            payload, crc = self._faults.mutate_record(
                ordinal, payload, zlib.crc32(payload)
            )
            # fetchall() runs the statement to completion, which commits
            # it before the after-put hook can fire.
            [(writes,)] = self._db().execute(_UPSERT, (
                key, CACHE_VERSION, family, time.time(),
                json.dumps(meta or {}), payload, crc,
            )).fetchall()
            metrics.puts.inc()
            metrics.bytes_written.inc(len(payload))
            if writes > 1:
                metrics.superseded.inc()
            self._faults.after_put(ordinal, key)

    # --- quarantine ---------------------------------------------------------

    def quarantine(self, key: str, index: int, attempts: int, reason: str,
                   error: str = "", meta: Optional[Dict[str, Any]] = None,
                   ) -> Dict[str, Any]:
        """Record one cell given up after ``attempts`` failed attempts
        as a row of the ``quarantine`` table; returns the record."""
        meta, ts = meta or {}, time.time()
        with self._lock:
            self._db().execute(
                "INSERT INTO quarantine VALUES (?, ?, ?, ?, ?, ?, ?)",
                (key, index, attempts, reason, error, json.dumps(meta), ts),
            )
        return dict(zip(_QUARANTINE_FIELDS,
                        (key, index, attempts, reason, error, meta, ts)))

    # --- inspection ---------------------------------------------------------

    def _scan(self) -> List[tuple]:
        """``(key, state, family, writes, ts, meta, size)`` per row,
        oldest first; ``state`` as :func:`_row_state` returns it.

        Sorted here rather than by SQL, which would push every report
        blob through SQLite's sorter."""
        with self._lock:
            rows = [
                (key, _row_state(version, report, crc), family, writes,
                 ts, meta, len(report))
                for key, version, report, crc, family, writes, ts, meta
                in self._db().execute(_SELECT_ALL)
            ]
        return sorted(rows, key=lambda row: (row[4], row[0]))

    def entries(self) -> List[CacheEntry]:
        """One :class:`CacheEntry` per key, oldest first, unusable ones
        flagged — what ``campaign ls`` lists and the gc policy ranks.
        ``path`` is the database file."""
        return [
            CacheEntry(key, self.path, ts, size, json.loads(meta),
                       corrupt=state in ("torn", "checksum"),
                       stale=state == "stale")
            for key, state, _, _, ts, meta, size in self._scan()
        ]

    def stats(self) -> StoreStats:
        """Physical/logical snapshot for ``campaign status``."""
        with self._lock:
            rows = self._scan()
            [(data_bytes,)] = self._db().execute(
                "SELECT page_count * page_size"
                " FROM pragma_page_count(), pragma_page_size()"
            ).fetchall()
        self._metrics().data_bytes.set(data_bytes)
        states = Counter(state for _, state, *_ in rows)
        families = Counter(
            family for _, state, family, *_ in rows if state is None
        )
        return StoreStats(
            keys=states[None],
            stale=states["stale"],
            corrupt=states["checksum"],
            corrupt_lines=states["torn"],
            superseded=sum(writes - 1 for _, _, _, writes, *_ in rows),
            checksum_failed=states["checksum"],
            data_bytes=data_bytes,
            families=tuple(sorted(families.items())),
        )

    # --- garbage collection and compaction ----------------------------------

    def gc(
        self,
        max_entries: Optional[int] = None,
        older_than_s: Optional[float] = None,
        remove_corrupt: bool = True,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> GcResult:
        """Prune the store; returns what was (or would be) removed.

        * ``older_than_s`` — drop entries older than this many seconds;
        * ``max_entries`` — after the age pass, keep only the newest N
          healthy entries;
        * ``remove_corrupt`` — also drop corrupt/stale entries (they
          read as misses anyway).

        The policy reads and deletes in one transaction, so a
        concurrent put lands wholly before or after it; the same
        transaction resets the superseded-write counts. ``dry_run=True``
        reports without deleting.
        """
        if max_entries is not None and max_entries < 0:
            raise ConfigError("max_entries must be >= 0")
        # ``not >=`` refuses NaN too: every comparison with NaN is false.
        if older_than_s is not None and not older_than_s >= 0:
            raise ConfigError("older_than_s must be >= 0")
        now = time.time() if now is None else now
        doomed, survivors = [], []
        with self._lock:
            db = self._db()
            db.execute("BEGIN IMMEDIATE")
            with db:
                for entry in self.entries():
                    if remove_corrupt and (entry.corrupt or entry.stale):
                        doomed.append(entry)
                    elif (
                        older_than_s is not None
                        and entry.age_seconds(now) > older_than_s
                    ):
                        doomed.append(entry)
                    else:
                        survivors.append(entry)
                keep = len(survivors) if max_entries is None else max_entries
                extra = max(0, len(survivors) - keep)
                # Healthy entries rank above corrupt/stale survivors in
                # the keep-newest-N pass.
                doomed.extend(sorted(survivors, key=lambda entry: (
                    not (entry.corrupt or entry.stale), entry.mtime, entry.key
                ))[:extra])
                if not dry_run:
                    db.executemany(
                        "DELETE FROM results WHERE key = ?",
                        [(entry.key,) for entry in doomed],
                    )
                    db.execute(
                        "UPDATE results SET writes = 1 WHERE writes > 1"
                    )
                    # Crash window under test: the delete is staged, not
                    # committed. A fault here rolls it back; a SIGKILL
                    # leaves an uncommitted WAL tail the next open drops.
                    self._faults.on_compact("before-commit")
        if not dry_run:
            self._metrics().gc_removed.inc(len(doomed))
        return GcResult(removed=tuple(doomed), kept=len(survivors) - extra)

    def compact(self, dry_run: bool = False) -> CompactionStats:
        """Run :meth:`gc`'s default policy (delete every unusable row,
        forget superseded writes), then ``VACUUM`` the freed pages."""
        with self._lock:
            before = self.stats()
            pruned = self.gc(dry_run=dry_run)
            after = before
            if not dry_run:
                db = self._db()
                db.execute("VACUUM")
                db.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                after = self.stats()
                metrics = self._metrics()
                metrics.compactions.inc()
                metrics.reclaimed_bytes.inc(
                    max(0, before.data_bytes - after.data_bytes)
                )
        dropped = before.superseded + pruned.removed_count
        return CompactionStats(dropped, before.data_bytes, after.data_bytes)

def open_store(store: ResultStore | str | Path) -> ResultStore:
    """``store`` itself, or a :class:`ShardedResultStore` opened (and
    created if missing) at a directory path."""
    if isinstance(store, (str, Path)):
        return ShardedResultStore(store)
    return store
