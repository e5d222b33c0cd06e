"""Latency recording and performance reporting.

``PerfReport`` (and the ``LatencyRecorder`` samples inside it) can be
serialized to a JSON-compatible dict and reconstructed exactly —
``PerfReport.from_json_dict(report.to_json_dict()) == report`` — which
is what lets the evaluation harness cache finished grid cells on disk
and resume interrupted campaigns (see :mod:`repro.campaign.store`).

A recorder keeps its samples packed in one ``array("d")`` of float64s,
so ``values`` is that array, not a list (compare it with a list
through ``list(...)``). The store decodes a record's packed samples
straight into such an array, and :meth:`LatencyRecorder.from_values`
copies it with one memcpy, so serving a stored report builds no Python
float per sample.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Sequence

import numpy as np

from repro.errors import SimulationError

class LatencyRecorder:
    """Accumulates per-request latencies for one operation class."""

    def __init__(self, name: str):
        self.name = name
        self._values = array("d")

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise SimulationError(f"negative latency {latency_us}")
        self._values.append(latency_us)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Sequence[float]:
        return self._values

    @property
    def mean_us(self) -> float:
        return float(np.mean(self._values)) if self._values else 0.0

    def percentile(self, pct: float) -> float:
        """Exact percentile over recorded samples (us).

        At bench scale the extreme percentiles saturate to the max
        sample; callers compare *relative* values across schemes, as
        the paper does (all Figure 14 values are normalized).
        """
        if not self._values:
            return 0.0
        return float(np.percentile(self._values, pct))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyRecorder):
            return NotImplemented
        return self.name == other.name and self._values == other._values

    # --- serialization ------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-compatible form preserving every recorded sample."""
        return {"name": self.name, "values": self._values.tolist()}

    @classmethod
    def from_values(
        cls, name: str, values: Iterable[float]
    ) -> "LatencyRecorder":
        """A recorder holding ``values`` as float64s, each equal to its
        ``float()``; an ``array("d")`` is copied by one memcpy."""
        recorder = cls(name)
        recorder._values = array("d", values)
        return recorder

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "LatencyRecorder":
        return cls.from_values(data["name"], data["values"])


@dataclass
class PerfReport:
    """Outcome of one timed trace replay."""

    workload: str
    scheme: str
    reads: LatencyRecorder
    writes: LatencyRecorder
    requests_completed: int = 0
    makespan_us: float = 0.0
    erases: int = 0
    erase_busy_us: float = 0.0
    erase_suspensions: int = 0
    gc_jobs: int = 0
    gc_page_moves: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def iops(self) -> float:
        """Completed requests per second over the makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return self.requests_completed / (self.makespan_us / 1e6)

    def read_tail(self, pct: float) -> float:
        return self.reads.percentile(pct)

    # --- serialization ------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        """Lossless JSON-compatible form (exact float round-trip)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "reads": self.reads.to_json_dict(),
            "writes": self.writes.to_json_dict(),
            "requests_completed": self.requests_completed,
            "makespan_us": self.makespan_us,
            "erases": self.erases,
            "erase_busy_us": self.erase_busy_us,
            "erase_suspensions": self.erase_suspensions,
            "gc_jobs": self.gc_jobs,
            "gc_page_moves": self.gc_page_moves,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "PerfReport":
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            reads=LatencyRecorder.from_json_dict(data["reads"]),
            writes=LatencyRecorder.from_json_dict(data["writes"]),
            requests_completed=int(data["requests_completed"]),
            makespan_us=float(data["makespan_us"]),
            erases=int(data["erases"]),
            erase_busy_us=float(data["erase_busy_us"]),
            erase_suspensions=int(data["erase_suspensions"]),
            gc_jobs=int(data["gc_jobs"]),
            gc_page_moves=int(data["gc_page_moves"]),
            extra={k: float(v) for k, v in data.get("extra", {}).items()},
        )


def normalize(value: float, baseline: float) -> float:
    """value / baseline with a guard for empty baselines."""
    if baseline <= 0:
        return 0.0 if value <= 0 else float("inf")
    return value / baseline
