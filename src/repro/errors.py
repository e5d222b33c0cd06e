"""Exception hierarchy for the AERO reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch a single base class. Sub-hierarchies mirror
the package layout (NAND device, FTL, simulator, workloads, configuration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


# --- NAND device ------------------------------------------------------------


class NandError(ReproError):
    """Base class for NAND device model errors."""


class AddressError(NandError):
    """A physical address is outside the device geometry."""


class CommandError(NandError):
    """An illegal command sequence was issued to a chip.

    Examples: programming a page that is not erased, erasing a block
    that is mid-suspend, reading a page that was never programmed.
    """


class WornOutError(NandError):
    """A block exceeded its endurance limit and can no longer be used."""


class FeatureError(NandError):
    """An unknown or read-only ONFI feature register was accessed."""


# --- erase schemes ----------------------------------------------------------


class EraseSchemeError(ReproError):
    """An erase scheme was driven through an invalid state transition."""


class EraseFailure(EraseSchemeError):
    """An erase operation could not complete within the loop budget.

    Carries the fail-bit count observed at the last verify-read so the
    caller (FTL) can decide whether to retire the block.
    """

    def __init__(self, message: str, fail_bits: int = 0, loops: int = 0):
        super().__init__(message)
        self.fail_bits = fail_bits
        self.loops = loops


# --- FTL --------------------------------------------------------------------


class FtlError(ReproError):
    """Base class for flash-translation-layer errors."""


class OutOfSpaceError(FtlError):
    """The FTL ran out of free blocks even after garbage collection."""


class MappingError(FtlError):
    """A logical page has no mapping or the mapping is inconsistent."""


# --- simulator ----------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or the engine state is invalid."""


# --- workloads ----------------------------------------------------------------


class TraceError(ReproError):
    """A workload trace is malformed or references an invalid range."""


# --- campaigns ----------------------------------------------------------------


class CampaignError(ReproError):
    """Base class for campaign orchestration errors."""


class PoisonCellError(CampaignError):
    """A cell exhausted its retry budget and ``on_poison="fail"`` is
    set, or a ``GridRunner`` job (or its put) failed.

    Carries the cell index and fingerprint so operators can find the
    quarantine record and the job that produced it. When the failing
    attempt ran in the calling process, ``__cause__`` is its own
    exception.
    """

    def __init__(self, message: str, index: int = -1, fingerprint: str = ""):
        super().__init__(message)
        self.index = index
        self.fingerprint = fingerprint


# --- fault injection ----------------------------------------------------------


class InjectedFault(ReproError):
    """A deterministic fault fired from a :class:`repro.faults.FaultPlan`.

    Raised at the exact hook point the plan names (a simulated crash
    around a store put, a compaction interrupt, a ``kill_worker`` on a
    cell running in the calling process); supervision layers catch it
    and exercise their recovery path instead of aborting.
    """

    def __init__(self, message: str, kind: str = ""):
        super().__init__(message)
        self.kind = kind
