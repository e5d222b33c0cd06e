"""Chunked, append-only, fingerprint-sharded result store.

:class:`ShardedResultStore` is the one implementation of the
:class:`~repro.harness.store.ResultStore` contract: the grid runner,
the experiment API, the lifetime comparisons, and the campaign
orchestrator all persist through it, and :func:`open_store` is the
single place a directory path becomes a store. Records append to JSONL
segment files sharded by fingerprint prefix (layout documented in
:mod:`repro.campaign`), so a million-cell campaign touches a few
hundred files instead of a million, and every ``put`` is one atomic
``O_APPEND`` write. This module alone knows the on-disk record format;
:class:`CacheEntry` and :class:`GcResult` describe its records to
``campaign ls`` and ``campaign compact``.

Durability model: the last record per key wins within a shard;
overwrites append rather than rewrite; a torn final line (crash
mid-append) is skipped on load; compaction writes the merged segment
*before* unlinking the old ones, so every intermediate crash state
still reads correctly. Records written under another
:data:`~repro.harness.cache.CACHE_VERSION` read as misses.

Integrity: every record written by this library version carries a
CRC32 (``"crc"``) over a canonical serialization of its key + report.
Records whose checksum no longer matches — bit rot, a partial
overwrite that still parses as JSON — read as misses, are counted in
:class:`StoreStats` and the ``repro_store_bad_entries_total``
telemetry series, and are dropped at compaction. Checksum-less records
from older stores stay readable unverified.

Telemetry: puts, get hits/misses, superseded overwrites, unusable
records, compactions, and live byte counts stream to the process
metrics registry (:mod:`repro.telemetry.instruments`); all counting
happens at put/get/compact boundaries, never per line in a loop that
matters.

Concurrency: every public method is thread-safe behind one store-wide
lock (the orchestrator persists from its main thread, but `put` from
worker threads is supported). Multi-*process* writers are
first-class: appends take a *shared* advisory ``flock`` on the
per-store lock file (concurrent appenders never serialize against
each other; POSIX ``O_APPEND`` keeps each line atomic), while
compaction and gc rewrites take it *exclusive* — so a rewrite can
never unlink a segment out from under an in-flight append. Every
rewrite bumps the store *generation* marker (``store.gen``); handles
that observe a new generation drop their cached shard indexes and
rescan instead of appending to unlinked segments or crashing on
``FileNotFoundError``. N orchestrators (or ``campaign run`` racing
``campaign compact``) can therefore share one store without losing
records.

Fault injection: a :class:`~repro.faults.FaultInjector` can be armed
on the store (``fault_injector=``); its hooks fire at the put and
compaction boundaries documented in :mod:`repro.faults`, behind a
one-branch no-op default.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigError
from repro.faults import FaultInjector, NO_FAULTS
from repro.harness.cache import CACHE_VERSION
from repro.harness.results import (
    FAMILY_CELL,
    result_family,
    result_from_json_dict,
    result_to_json_dict,
)
from repro.harness.store import ResultStore
from repro.telemetry.instruments import store_metrics


def record_checksum(key: str, report_dict: Dict[str, Any]) -> int:
    """CRC32 over a canonical serialization of one record's payload.

    Canonical = sorted keys, no whitespace — ``json.dumps`` of a
    just-parsed record reproduces the bytes hashed at write time (JSON
    floats round-trip through Python's shortest-repr formatting), so
    the checksum verifies on load without retaining the original line.
    """
    payload = json.dumps(
        [key, report_dict], sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(payload.encode("utf-8"))

#: Bump when the on-disk layout (manifest, sharding, segment naming)
#: changes incompatibly — distinct from CACHE_VERSION, which versions
#: the *records* and flows through unchanged.
STORE_LAYOUT_VERSION = 1

_MANIFEST = "store.json"
_LOCKFILE = "store.lock"
_GENERATION = "store.gen"
_DEFAULT_PREFIX_LEN = 2
_DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024


class _Record(NamedTuple):
    """Index entry for the latest record of one key."""

    path: Path
    offset: int
    length: int
    ts: float
    meta: Dict[str, Any]
    stale: bool     # readable, but written under another CACHE_VERSION
    corrupt: bool   # readable JSON, but missing or failing its report
    family: str = FAMILY_CELL  # result family (absent on legacy records)


@dataclass
class _Shard:
    """In-memory index of one shard directory."""

    records: Dict[str, _Record] = field(default_factory=dict)
    segments: List[Path] = field(default_factory=list)
    active_size: int = 0
    corrupt_lines: int = 0    # unparsable or keyless lines
    superseded: int = 0       # records overwritten by a later append
    checksum_failed: int = 0  # records whose CRC32 did not verify
    data_bytes: int = 0


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored key (for ``campaign ls`` / ``gc``).

    ``corrupt`` marks records that parse but cannot be served (missing
    report, failed checksum); ``stale`` marks records written under a
    different :data:`CACHE_VERSION`. Both read as misses at run time
    and are prime garbage-collection candidates.
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
    #: Compaction tmp files orphaned by a crash, swept up.
    tmp_removed: int = 0

    @property
    def removed_count(self) -> int:
        return len(self.removed)

    @property
    def removed_bytes(self) -> int:
        return sum(entry.size for entry in self.removed)


@dataclass(frozen=True)
class StoreStats:
    """One snapshot of the store's physical and logical shape."""

    shards: int
    segments: int
    keys: int            # retrievable entries (healthy, current-version)
    stale: int           # latest-record-per-key entries at an old version
    corrupt: int         # latest-record-per-key entries missing a report
    corrupt_lines: int   # unparsable lines (torn appends, foreign bytes)
    superseded: int      # records shadowed by a later append
    checksum_failed: int  # records seen with a CRC32 mismatch
    data_bytes: int
    #: Retrievable entries per result family, as sorted (family, count)
    #: pairs — mixed campaigns report cell and lifetime progress
    #: separately (``campaign status --json``).
    families: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one :meth:`ShardedResultStore.compact` pass."""

    shards_rewritten: int
    segments_before: int
    segments_after: int
    records_dropped: int   # superseded + stale + corrupt (+ torn lines)
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


class ShardedResultStore:
    """Fingerprint-sharded, append-only store of finished results.

    Satisfies :class:`~repro.harness.store.ResultStore`; the grid
    runner (``cache=``) and the campaign orchestrator open one from a
    path through :func:`open_store`.
    """

    def __init__(
        self,
        root: str | Path,
        prefix_len: Optional[int] = None,
        segment_max_bytes: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        """Open (or create) the store rooted at ``root``.

        ``prefix_len`` (shard = first N hex digits of the fingerprint)
        and ``segment_max_bytes`` (roll the active segment past this
        size) apply when *creating* a store; an existing store's
        manifest wins, and an explicit ``prefix_len`` conflicting with
        it is an error — honouring it would scatter keys across the
        wrong shards. ``fault_injector`` arms deterministic faults at
        the put/compaction boundaries (chaos testing only).
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._shards: Dict[str, _Shard] = {}
        self._faults = fault_injector or NO_FAULTS
        self._lock_fd: Optional[int] = None
        self._flock_depth = 0
        self._generation = self._read_generation_file()
        manifest = self._read_manifest()
        if manifest is None:
            self.prefix_len = (
                _DEFAULT_PREFIX_LEN if prefix_len is None else prefix_len
            )
            self.segment_max_bytes = (
                _DEFAULT_SEGMENT_MAX_BYTES
                if segment_max_bytes is None else segment_max_bytes
            )
            if not 1 <= self.prefix_len <= 8:
                raise ConfigError(
                    f"prefix_len must be in 1..8, got {self.prefix_len}"
                )
            if self.segment_max_bytes < 1:
                raise ConfigError("segment_max_bytes must be positive")
            self._write_manifest()
        else:
            if (
                prefix_len is not None
                and prefix_len != manifest["prefix_len"]
            ):
                raise ConfigError(
                    f"store {self.root} was created with prefix_len="
                    f"{manifest['prefix_len']}; cannot reopen with "
                    f"prefix_len={prefix_len}"
                )
            self.prefix_len = int(manifest["prefix_len"])
            self.segment_max_bytes = int(
                segment_max_bytes
                if segment_max_bytes is not None
                else manifest["segment_max_bytes"]
            )

    # --- manifest -----------------------------------------------------------

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        path = self.root / _MANIFEST
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except ValueError as exc:
            raise ConfigError(
                f"corrupt store manifest {path}: {exc}"
            ) from exc
        if data.get("layout") != STORE_LAYOUT_VERSION:
            raise ConfigError(
                f"store {self.root} uses layout {data.get('layout')!r}; "
                f"this library reads layout {STORE_LAYOUT_VERSION}"
            )
        return data

    def _write_manifest(self) -> None:
        path = self.root / _MANIFEST
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {
                    "layout": STORE_LAYOUT_VERSION,
                    "prefix_len": self.prefix_len,
                    "segment_max_bytes": self.segment_max_bytes,
                }
            ),
            encoding="utf-8",
        )
        os.replace(tmp, path)

    def set_fault_injector(self, injector: FaultInjector) -> None:
        """Arm (or disarm, with :data:`~repro.faults.NO_FAULTS`) the
        store's fault hooks after construction."""
        self._faults = injector

    # --- cross-process safety -----------------------------------------------
    #
    # Protocol: appends hold the per-store lock file in *shared* mode
    # (concurrent appenders proceed in parallel; O_APPEND keeps each
    # line atomic), rewrites (compact/gc) hold it *exclusive* and
    # rescan from disk first, so an append either completes before the
    # rewrite reads segments (merged) or starts after it finishes
    # (observes the bumped generation, rescans, appends to the live
    # segment). Either way no record is lost.

    @contextlib.contextmanager
    def _flock(self, exclusive: bool) -> Iterator[None]:
        """Hold the store lock file; callers already hold ``_lock``.

        Re-entrant within the process (an inner acquisition would
        otherwise *convert* the outer lock's mode on the shared fd).
        """
        if fcntl is None or self._flock_depth > 0:
            self._flock_depth += 1
            try:
                yield
            finally:
                self._flock_depth -= 1
            return
        if self._lock_fd is None:
            self._lock_fd = os.open(
                self.root / _LOCKFILE, os.O_RDWR | os.O_CREAT, 0o644
            )
        mode = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        try:
            fcntl.flock(self._lock_fd, mode | fcntl.LOCK_NB)
        except OSError:
            # Contended: another process holds a conflicting mode.
            metrics = store_metrics("sharded")
            metrics.lock_waits(
                "exclusive" if exclusive else "shared"
            ).inc()
            begin = time.perf_counter()
            fcntl.flock(self._lock_fd, mode)
            metrics.lock_wait_seconds.observe(
                time.perf_counter() - begin
            )
        self._flock_depth = 1
        try:
            yield
        finally:
            self._flock_depth = 0
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)

    def _read_generation_file(self) -> int:
        try:
            text = (self.root / _GENERATION).read_text(encoding="utf-8")
            return int(text.strip() or 0)
        except (OSError, ValueError):
            return 0

    def _bump_generation(self) -> None:
        """Advance the generation marker; caller holds the exclusive
        lock, so read-increment-write cannot race another bump."""
        self._generation = self._read_generation_file() + 1
        tmp = self.root / f"{_GENERATION}.tmp.{os.getpid()}"
        tmp.write_text(str(self._generation), encoding="utf-8")
        os.replace(tmp, self.root / _GENERATION)

    def _sync_generation(self) -> None:
        """Drop cached shard indexes if another process compacted."""
        generation = self._read_generation_file()
        if generation != self._generation:
            self._generation = generation
            if self._shards:
                self._shards.clear()
                store_metrics("sharded").generation_rescans.inc()

    def _rescan_shard(self, prefix: str) -> _Shard:
        """Force one shard's index to reload from disk."""
        if self._shards.pop(prefix, None) is not None:
            store_metrics("sharded").generation_rescans.inc()
        return self._shard(prefix)

    # --- sharding -----------------------------------------------------------

    def shard_of(self, key: str) -> str:
        """The shard directory name holding ``key``."""
        prefix = key[: self.prefix_len].lower()
        if len(prefix) < self.prefix_len or any(
            c not in "0123456789abcdef" for c in prefix
        ):
            raise ConfigError(
                f"key {key!r} is not a hex fingerprint; cannot shard it"
            )
        return prefix

    def _shard_dir(self, prefix: str) -> Path:
        return self.root / prefix

    def _segment_number(self, path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            return -1

    def _shard_prefixes(self) -> List[str]:
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and len(entry.name) == self.prefix_len
        )

    # --- index construction -------------------------------------------------

    def _shard(self, prefix: str) -> _Shard:
        """The shard's in-memory index, loading it on first touch."""
        shard = self._shards.get(prefix)
        if shard is not None:
            return shard
        shard = _Shard()
        directory = self._shard_dir(prefix)
        segments = sorted(
            (
                path
                for path in directory.glob("seg-*.jsonl")
                if self._segment_number(path) >= 0
            ),
            key=self._segment_number,
        ) if directory.is_dir() else []
        shard.segments = segments
        for path in segments:
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            shard.data_bytes += len(blob)
            offset = 0
            while offset < len(blob):
                end = blob.find(b"\n", offset)
                if end < 0:
                    # Torn final line — a crash mid-append. Skipped on
                    # load, reclaimed at compaction; the next append
                    # starts a fresh segment so it cannot concatenate
                    # onto the torn bytes.
                    shard.corrupt_lines += 1
                    store_metrics("sharded").bad_entry("torn").inc()
                    break
                self._index_line(
                    shard, path, blob[offset:end], offset, end + 1 - offset
                )
                offset = end + 1
        if segments:
            try:
                shard.active_size = segments[-1].stat().st_size
            except OSError:
                # Segment vanished mid-scan (concurrent compaction);
                # the next append rolls a fresh segment.
                shard.active_size = 0
        self._shards[prefix] = shard
        return shard

    def _index_line(
        self, shard: _Shard, path: Path, line: bytes, offset: int, length: int
    ) -> None:
        try:
            data = json.loads(line)
        except ValueError:
            shard.corrupt_lines += 1
            store_metrics("sharded").bad_entry("torn").inc()
            return
        if not isinstance(data, dict) or not isinstance(
            data.get("key"), str
        ):
            shard.corrupt_lines += 1
            store_metrics("sharded").bad_entry("torn").inc()
            return
        key = data["key"]
        if key in shard.records:
            shard.superseded += 1
        meta = data.get("meta")
        stale = data.get("version") != CACHE_VERSION
        corrupt = "report" not in data
        if corrupt and not stale:
            store_metrics("sharded").bad_entry("corrupt").inc()
        elif stale:
            store_metrics("sharded").bad_entry("stale").inc()
        crc = data.get("crc")
        if not corrupt and crc is not None:
            if crc != record_checksum(key, data["report"]):
                # Bit rot, or a partial overwrite that still parses as
                # JSON — unusable, and distinct from a missing report.
                corrupt = True
                shard.checksum_failed += 1
                store_metrics("sharded").bad_entry("checksum").inc()
        shard.records[key] = _Record(
            path=path,
            offset=offset,
            length=length,
            ts=float(data.get("ts") or 0.0),
            meta=dict(meta) if isinstance(meta, dict) else {},
            stale=stale,
            corrupt=corrupt,
            family=str(data.get("family", FAMILY_CELL)),
        )

    def _record(self, key: str) -> Optional[_Record]:
        return self._shard(self.shard_of(key)).records.get(key)

    def _read_record(self, record: _Record) -> Optional[Dict[str, Any]]:
        try:
            with record.path.open("rb") as handle:
                handle.seek(record.offset)
                return json.loads(handle.read(record.length))
        except (OSError, ValueError):
            return None

    # --- ResultStore contract -----------------------------------------------

    def __contains__(self, key: str) -> bool:
        """Membership matches retrievability, as the contract demands."""
        with self._lock:
            self._sync_generation()
            record = self._record(key)
            return (
                record is not None
                and not record.stale
                and not record.corrupt
            )

    def get(self, key: str) -> Optional[Any]:
        """Load the newest record for ``key``; None on any miss.

        Deserialization dispatches on the record's ``family`` field
        (absent on legacy records, which read as grid cells), so one
        store holds grid-cell reports and lifetime curves side by side.
        """
        metrics = store_metrics("sharded")
        with self._lock:
            self._sync_generation()
            record = self._record(key)
            if record is None or record.stale or record.corrupt:
                metrics.get_outcome(hit=False).inc()
                return None
            data = self._read_record(record)
            if data is None or data.get("key") != key:
                # The indexed segment was replaced under us by another
                # process's compaction (generation not yet observed, or
                # offsets shifted). Reload this shard from disk once.
                record = self._rescan_shard(
                    self.shard_of(key)
                ).records.get(key)
                if record is None or record.stale or record.corrupt:
                    metrics.get_outcome(hit=False).inc()
                    return None
                data = self._read_record(record)
        if (
            data is None
            or data.get("key") != key
            or data.get("version") != CACHE_VERSION
        ):
            metrics.get_outcome(hit=False).inc()
            return None
        try:
            report = result_from_json_dict(
                data.get("family", FAMILY_CELL), data["report"]
            )
        except (ValueError, KeyError, TypeError, ConfigError):
            metrics.get_outcome(hit=False).inc()
            return None
        metrics.get_outcome(hit=True).inc()
        return report

    def put(
        self,
        key: str,
        report: Any,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append one finished result; one atomic ``O_APPEND`` write."""
        now = time.time()
        family = result_family(report)
        report_dict = result_to_json_dict(report)
        record: Dict[str, Any] = {
            "version": CACHE_VERSION,
            "key": key,
            "ts": now,
            "meta": meta or {},
            "report": report_dict,
            "crc": record_checksum(key, report_dict),
        }
        # Legacy cell records have no family field; writing cells the
        # same way keeps record bytes identical across versions (the
        # CRC covers key + report either way).
        if family != FAMILY_CELL:
            record["family"] = family
        line = (
            json.dumps(record, separators=(",", ":")).encode("utf-8")
            + b"\n"
        )
        metrics = store_metrics("sharded")
        with self._lock:
            # Fault hooks (no-op branch by default): a crash-flavoured
            # fault raises InjectedFault before anything is durable; a
            # corruption fault rewrites the line we are about to append.
            ordinal = self._faults.before_put(key)
            payload = self._faults.mutate_line(ordinal, line)
            with self._flock(exclusive=False):
                self._sync_generation()
                prefix = self.shard_of(key)
                shard = self._shard(prefix)
                path = self._active_segment(prefix, shard, len(payload))
                fd = os.open(
                    path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
                )
                try:
                    os.write(fd, payload)
                    # Under multi-process appends our cached size may
                    # lag; the fd's position after an O_APPEND write is
                    # the authoritative end of file.
                    end = os.lseek(fd, 0, os.SEEK_CUR)
                finally:
                    os.close(fd)
                offset = end - len(payload)
                shard.active_size = end
                shard.data_bytes += len(payload)
                metrics.puts.inc()
                metrics.bytes_written.inc(len(payload))
                if payload is not line:
                    # The line on disk is deliberately damaged; rescan
                    # so the index reflects what a fresh load would see.
                    self._shards.pop(prefix, None)
                else:
                    if key in shard.records:
                        shard.superseded += 1
                        metrics.superseded.inc()
                    shard.records[key] = _Record(
                        path=path,
                        offset=offset,
                        length=len(payload),
                        ts=now,
                        meta=dict(meta or {}),
                        stale=False,
                        corrupt=False,
                        family=family,
                    )
            self._faults.after_put(ordinal, key)

    def _active_segment(
        self, prefix: str, shard: _Shard, incoming: int
    ) -> Path:
        """The segment the next append lands in, rolling when full.

        Also rolls when the current tail is torn (no trailing newline),
        so a crash-truncated line never gets foreign bytes appended to
        it.
        """
        if shard.segments:
            tail = shard.segments[-1]
            torn = False
            if shard.active_size:
                try:
                    with tail.open("rb") as handle:
                        handle.seek(shard.active_size - 1)
                        torn = handle.read(1) != b"\n"
                except OSError:
                    torn = True
            if not torn and (
                shard.active_size == 0
                or shard.active_size + incoming <= self.segment_max_bytes
            ):
                return tail
            number = self._segment_number(tail) + 1
        else:
            self._shard_dir(prefix).mkdir(parents=True, exist_ok=True)
            number = 0
        path = self._shard_dir(prefix) / f"seg-{number:06d}.jsonl"
        shard.segments.append(path)
        shard.active_size = 0
        return path

    # --- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        """Retrievable entries only — corrupt and stale records read
        as misses, so counting them would make resume-progress
        estimates (and ``campaign ls`` totals) lie after a crash."""
        with self._lock:
            return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Every retrievable key (healthy, current-version)."""
        with self._lock:
            self._sync_generation()
            for prefix in self._shard_prefixes():
                for key, record in self._shard(prefix).records.items():
                    if not record.stale and not record.corrupt:
                        yield key

    def entries(self) -> List[CacheEntry]:
        """One :class:`CacheEntry` per key (its newest record), oldest
        first, unusable ones flagged — what ``campaign ls`` lists and
        the gc policy ranks. ``path`` points at the record's segment
        file.
        """
        with self._lock:
            self._sync_generation()
            found = [
                CacheEntry(
                    key=key,
                    path=record.path,
                    mtime=record.ts,
                    size=record.length,
                    meta=record.meta,
                    corrupt=record.corrupt,
                    stale=record.stale,
                )
                for prefix in self._shard_prefixes()
                for key, record in self._shard(prefix).records.items()
            ]
        found.sort(key=lambda entry: (entry.mtime, entry.key))
        return found

    def stats(self) -> StoreStats:
        """Physical/logical snapshot for ``campaign status``."""
        with self._lock:
            self._sync_generation()
            prefixes = self._shard_prefixes()
            shards = [self._shard(prefix) for prefix in prefixes]
            data_bytes = sum(shard.data_bytes for shard in shards)
            store_metrics("sharded").data_bytes.set(data_bytes)
            family_counts: Dict[str, int] = {}
            for shard in shards:
                for record in shard.records.values():
                    if not record.stale and not record.corrupt:
                        family_counts[record.family] = (
                            family_counts.get(record.family, 0) + 1
                        )
            return StoreStats(
                shards=len(prefixes),
                segments=sum(len(shard.segments) for shard in shards),
                keys=sum(
                    1
                    for shard in shards
                    for record in shard.records.values()
                    if not record.stale and not record.corrupt
                ),
                stale=sum(
                    1
                    for shard in shards
                    for record in shard.records.values()
                    if record.stale
                ),
                corrupt=sum(
                    1
                    for shard in shards
                    for record in shard.records.values()
                    if record.corrupt and not record.stale
                ),
                corrupt_lines=sum(
                    shard.corrupt_lines for shard in shards
                ),
                superseded=sum(shard.superseded for shard in shards),
                checksum_failed=sum(
                    shard.checksum_failed for shard in shards
                ),
                data_bytes=data_bytes,
                families=tuple(sorted(family_counts.items())),
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

        Because the store is append-only, every non-dry run *rewrites*
        the shards it touches (dropping superseded records and torn
        lines along the way), so gc doubles as targeted compaction.
        ``dry_run=True`` reports without rewriting.
        """
        if max_entries is not None and max_entries < 0:
            raise ConfigError("max_entries must be >= 0")
        if older_than_s is not None and older_than_s < 0:
            raise ConfigError("older_than_s must be >= 0")
        now = time.time() if now is None else now
        with self._lock, self._flock(exclusive=True):
            # Exclusive: no other process can append or rewrite while
            # we decide what survives. Rescan from disk so appends made
            # by other processes since our last load are in the policy.
            self._generation = self._read_generation_file()
            self._shards.clear()
            doomed: List[CacheEntry] = []
            survivors: List[CacheEntry] = []
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
            if max_entries is not None and len(survivors) > max_entries:
                # Healthy entries rank above corrupt/stale survivors in
                # the keep-newest-N pass.
                ranked = sorted(
                    survivors,
                    key=lambda entry: (
                        not (entry.corrupt or entry.stale),
                        entry.mtime,
                        entry.key,
                    ),
                )
                extra = len(survivors) - max_entries
                doomed.extend(ranked[:extra])
                survivors = sorted(
                    ranked[extra:],
                    key=lambda entry: (entry.mtime, entry.key),
                )
            if not dry_run and doomed:
                doomed_keys = {entry.key for entry in doomed}
                for prefix in self._shard_prefixes():
                    shard = self._shard(prefix)
                    if any(key in doomed_keys for key in shard.records):
                        self._rewrite(
                            prefix,
                            keep={
                                key
                                for key in shard.records
                                if key not in doomed_keys
                            },
                        )
            tmp_removed = self._sweep_tmp(now, dry_run)
            if not dry_run and doomed:
                self._bump_generation()
                store_metrics("sharded").gc_removed.inc(len(doomed))
        return GcResult(
            removed=tuple(doomed),
            kept=len(survivors),
            tmp_removed=tmp_removed,
        )

    def compact(self, dry_run: bool = False) -> CompactionStats:
        """Merge every shard to one segment of live records.

        Drops superseded records, torn lines, and corrupt/stale
        entries; keeps the newest healthy record per key. Crash-safe:
        the merged segment is fully written (tmp + rename) and ordered
        after the old ones before any old segment is unlinked.
        """
        rewritten = 0
        with self._lock, self._flock(exclusive=True):
            # Exclusive + rescan, as in gc(): merge what is actually on
            # disk, including other processes' appends.
            self._generation = self._read_generation_file()
            self._shards.clear()
            before = self.stats()
            if not dry_run:
                for prefix in self._shard_prefixes():
                    shard = self._shard(prefix)
                    needs = (
                        len(shard.segments) > 1
                        or shard.superseded
                        or shard.corrupt_lines
                        or any(
                            record.stale or record.corrupt
                            for record in shard.records.values()
                        )
                    )
                    if needs:
                        self._rewrite(
                            prefix,
                            keep={
                                key
                                for key, record in shard.records.items()
                                if not record.stale and not record.corrupt
                            },
                        )
                        rewritten += 1
                self._sweep_tmp(time.time(), dry_run=False)
                if rewritten:
                    self._bump_generation()
            after = self.stats() if not dry_run else before
        dropped = (
            before.superseded
            + before.corrupt_lines
            + before.stale
            + before.corrupt
        )
        if not dry_run:
            metrics = store_metrics("sharded")
            metrics.compactions.inc()
            metrics.reclaimed_bytes.inc(
                max(0, before.data_bytes - after.data_bytes)
            )
        return CompactionStats(
            shards_rewritten=rewritten,
            segments_before=before.segments,
            segments_after=after.segments,
            records_dropped=dropped,
            bytes_before=before.data_bytes,
            bytes_after=after.data_bytes,
        )

    def _rewrite(self, prefix: str, keep: set) -> None:
        """Rewrite one shard to a single fresh segment of ``keep`` keys.

        The new segment is numbered after every existing one, so its
        records win last-wins resolution the moment it is renamed into
        place; old segments are unlinked only afterwards — a crash in
        between leaves benign duplicates, never data loss.
        """
        shard = self._shard(prefix)
        directory = self._shard_dir(prefix)
        old_segments = list(shard.segments)
        number = (
            self._segment_number(old_segments[-1]) + 1 if old_segments else 0
        )
        kept: List[Tuple[str, _Record, bytes]] = []
        for key in keep:
            record = shard.records.get(key)
            if record is None:
                continue
            with record.path.open("rb") as handle:
                handle.seek(record.offset)
                line = handle.read(record.length)
            if line.endswith(b"\n"):
                kept.append((key, record, line))
        kept.sort(key=lambda item: (item[1].ts, item[0]))
        fresh = _Shard()
        if kept:
            path = directory / f"seg-{number:06d}.jsonl"
            tmp = path.with_suffix(f".jsonl.tmp.{os.getpid()}")
            offset = 0
            with tmp.open("wb") as handle:
                for key, record, line in kept:
                    handle.write(line)
                    fresh.records[key] = record._replace(
                        path=path, offset=offset
                    )
                    offset += len(line)
            os.replace(tmp, path)
            fresh.segments = [path]
            fresh.active_size = offset
            fresh.data_bytes = offset
        # Crash window under test: the merged segment is durable and
        # outnumbers the old ones, which still exist. A fault plan may
        # interrupt here; recovery reads benign duplicates, last wins.
        self._faults.on_compact("before-unlink")
        for old in old_segments:
            try:
                old.unlink()
            except FileNotFoundError:
                pass
        self._shards[prefix] = fresh

    def _sweep_tmp(self, now: float, dry_run: bool) -> int:
        """Sweep compaction tmp files orphaned by a crash (>60 s old)."""
        swept = 0
        for path in self.root.glob("*/*.tmp.*"):
            try:
                if now - path.stat().st_mtime > 60.0:
                    if not dry_run:
                        path.unlink()
                    swept += 1
            except OSError:
                pass
        return swept

    def __repr__(self) -> str:
        return (
            f"ShardedResultStore(root={str(self.root)!r}, "
            f"prefix_len={self.prefix_len})"
        )


def open_store(store: ResultStore | str | Path) -> ResultStore:
    """``store`` itself, or a :class:`ShardedResultStore` opened (and
    created if missing) at a directory path."""
    if isinstance(store, (str, Path)):
        return ShardedResultStore(store)
    return store
