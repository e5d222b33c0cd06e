"""The eleven evaluated workloads (Table 3 of the paper).

Five Alibaba cloud block-storage traces and six MSR Cambridge
enterprise traces, characterized by read ratio, average request size,
and average inter-request arrival time. The MSRC traces are replayed
10x accelerated, as in the paper (and much prior work).

We do not ship the raw traces (license/size); the synthetic generator
reproduces these first-order characteristics, and the parsers in
:mod:`repro.workloads.msrc` / :mod:`repro.workloads.alibaba` let users
drop in the real files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.experiments.registry import WORKLOADS


@dataclass(frozen=True)
class WorkloadProfile:
    """First-order I/O characteristics of one workload (Table 3 row)."""

    #: Source benchmark suite ("alibaba" or "msrc").
    suite: str
    #: Original trace name (e.g. "ali_32", "rsrch_0").
    trace: str
    #: Abbreviation used in the paper's figures (e.g. "ali.A", "rsrch").
    abbr: str
    #: Fraction of read requests.
    read_ratio: float
    #: Average request size in KB.
    avg_request_kb: float
    #: Average inter-request arrival time in ms, as listed in Table 3.
    avg_inter_arrival_ms: float
    #: Replay acceleration applied by the paper (10x for MSRC).
    acceleration: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigError("read ratio must be in [0, 1]")
        if self.avg_request_kb <= 0 or self.avg_inter_arrival_ms <= 0:
            raise ConfigError("sizes and gaps must be positive")

    @property
    def effective_inter_arrival_us(self) -> float:
        """Mean inter-arrival gap after acceleration (microseconds)."""
        return self.avg_inter_arrival_ms * 1000.0 / self.acceleration


ALL_PROFILES: Tuple[WorkloadProfile, ...] = (
    WorkloadProfile("alibaba", "ali_32", "ali.A", 0.07, 54.0, 16.3),
    WorkloadProfile("alibaba", "ali_3", "ali.B", 0.52, 26.0, 111.8),
    WorkloadProfile("alibaba", "ali_12", "ali.C", 0.69, 38.0, 57.9),
    WorkloadProfile("alibaba", "ali_121", "ali.D", 0.78, 18.0, 13.8),
    WorkloadProfile("alibaba", "ali_124", "ali.E", 0.95, 36.0, 5.1),
    WorkloadProfile("msrc", "rsrch_0", "rsrch", 0.09, 9.0, 421.9, acceleration=10.0),
    WorkloadProfile("msrc", "stg_0", "stg", 0.15, 12.0, 297.8, acceleration=10.0),
    WorkloadProfile("msrc", "hm_0", "hm", 0.36, 8.0, 151.5, acceleration=10.0),
    WorkloadProfile("msrc", "prxy_1", "prxy", 0.65, 13.0, 3.6, acceleration=10.0),
    WorkloadProfile("msrc", "proj_2", "proj", 0.88, 42.0, 20.6, acceleration=10.0),
    WorkloadProfile("msrc", "usr_1", "usr", 0.91, 49.0, 13.4, acceleration=10.0),
)

PROFILES_BY_ABBR: Dict[str, WorkloadProfile] = {
    profile.abbr: profile for profile in ALL_PROFILES
}

# The Table 3 profiles are the built-in entries of the process-wide
# workload registry; every abbreviation anywhere in the library (the
# harness, ExperimentSpec, the CLI) resolves through it, and plugins
# add workloads with WORKLOADS.register(...) / WORKLOADS.add(...)
# without touching this file.
for _profile in ALL_PROFILES:
    WORKLOADS.add(_profile)
del _profile


def profile_by_abbr(abbr: str) -> WorkloadProfile:
    """Look up a workload by its figure abbreviation (registry shim).

    Resolves through :data:`repro.experiments.WORKLOADS`, so plugin
    workloads registered at runtime are found too. Unknown keys raise
    :class:`ConfigError` listing every registered abbreviation.
    """
    return WORKLOADS.resolve(abbr)
