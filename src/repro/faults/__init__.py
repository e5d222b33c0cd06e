"""Deterministic fault injection for chaos-testing the campaign stack.

A :class:`FaultPlan` is a seeded, JSON round-trippable description of
*exactly* which faults fire where: the Nth store put stores torn
report bytes, the worker executing cell K dies, a compaction is
interrupted between staging its delete and committing it. Because every fault is a pure predicate over (cell index,
attempt number, put ordinal) plus a seed — no wall clocks, no real
randomness — a chaos run reproduces byte-for-byte: CI replays every
failure mode the suite pins.

Hook points are threaded through the store and orchestrator behind a
no-op default (:data:`NO_FAULTS`), so production paths pay one branch
per boundary call. ``python -m repro campaign run --fault-plan
plan.json`` arms a plan from the shell.

Fault kinds
===========

``torn_tail``
    The targeted put stores its report bytes cut short under the whole
    bytes' CRC32, as a crash mid-write would leave them; the row reads
    as a torn miss and the next run re-executes the cell.
``corrupt_checksum``
    The targeted put stores its CRC32 off by one; the row parses but
    reads as a checksum miss.
``crash_before_put`` / ``crash_after_put``
    :class:`~repro.errors.InjectedFault` is raised before the targeted
    UPSERT or after it commits — the orchestrator treats it as a torn
    persist and retries the cell (before: nothing durable; after: a
    superseded duplicate).
``kill_worker``
    The worker executing the targeted cell dies — ``os._exit`` in a
    worker process (real worker death, exercising worker
    replacement); :class:`InjectedFault` when the cell runs in the
    calling process.
``slow_cell``
    The targeted cell sleeps ``delay_s`` before executing — pair with
    ``--cell-timeout`` to exercise the timeout/retry path.
``compact_interrupt``
    :class:`InjectedFault` is raised inside the compaction (or gc)
    transaction, after its ``DELETE`` and before ``COMMIT``; the
    transaction rolls back and a plain reopen serves every key.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NO_FAULTS,
    load_fault_file,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NO_FAULTS",
    "load_fault_file",
]
