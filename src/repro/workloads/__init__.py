"""Workload substrate: trace model, Table 3 profiles, generators, parsers."""

from repro.workloads.trace import Trace, TraceRequest
from repro.workloads.profiles import (
    ALL_PROFILES,
    PROFILES_BY_ABBR,
    WorkloadProfile,
)
from repro.workloads.synthetic import SyntheticTraceGenerator
from repro.workloads.msrc import load_msrc_csv
from repro.workloads.alibaba import load_alibaba_csv

__all__ = [
    "ALL_PROFILES",
    "PROFILES_BY_ABBR",
    "SyntheticTraceGenerator",
    "Trace",
    "TraceRequest",
    "WorkloadProfile",
    "load_alibaba_csv",
    "load_msrc_csv",
]
