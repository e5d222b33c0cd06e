"""Evaluation-grid container and figure-shaped projections.

:class:`EvaluationGrid` holds every cell of one campaign and keeps a
``(scheme, pec, workload)`` index alongside the cell list, so
``report`` lookups are O(1) even on the full 5-scheme x 3-setpoint x
11-workload grid the figures iterate over many times. Cells should be
added through :meth:`EvaluationGrid.add`; code that appends to
``cells`` directly, or replaces cells in place, still works — every
indexed hit is validated against the cell list and the index is
rebuilt lazily whenever it disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ssd.metrics import PerfReport, normalize

#: Lookup key of one cell: (scheme, pec, workload).
CellKey = Tuple[str, int, str]


@dataclass
class GridCell:
    """One (scheme, pec, workload) evaluation cell."""

    scheme: str
    pec: int
    workload: str
    report: PerfReport

    @property
    def key(self) -> CellKey:
        return (self.scheme, self.pec, self.workload)


@dataclass
class EvaluationGrid:
    """All cells of one evaluation campaign, with lookup helpers."""

    cells: List[GridCell] = field(default_factory=list)
    # key -> position of the *first* cell added with that key.
    _index: Dict[CellKey, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def add(self, cell: GridCell) -> None:
        """Append a cell and index it for O(1) lookup."""
        self.cells.append(cell)
        self._index.setdefault(cell.key, len(self.cells) - 1)

    def report(self, scheme: str, pec: int, workload: str) -> PerfReport:
        """The report of the first cell :meth:`add` took under this key
        (``KeyError`` if none)."""
        return self.cells[self._index[(scheme, pec, workload)]].report

    def schemes(self) -> List[str]:
        return sorted({cell.scheme for cell in self.cells})

    def workloads(self) -> List[str]:
        return sorted({cell.workload for cell in self.cells})

    # --- figure-shaped projections -------------------------------------------------

    def normalized_read_tail(
        self, pct: float, pec: int, baseline: str = "baseline"
    ) -> Dict[str, Dict[str, float]]:
        """Figure 14: per-workload read tail latency vs Baseline."""
        out: Dict[str, Dict[str, float]] = {}
        for workload in self.workloads():
            base = self.report(baseline, pec, workload).read_tail(pct)
            out[workload] = {
                scheme: normalize(
                    self.report(scheme, pec, workload).read_tail(pct), base
                )
                for scheme in self.schemes()
            }
        return out

    def geomean_normalized(
        self,
        metric,
        pec: int,
        baseline: str = "baseline",
    ) -> Dict[str, float]:
        """Geometric mean across workloads of metric(report)/metric(base)."""
        import math

        out: Dict[str, float] = {}
        for scheme in self.schemes():
            log_sum, count = 0.0, 0
            for workload in self.workloads():
                base = metric(self.report(baseline, pec, workload))
                value = metric(self.report(scheme, pec, workload))
                ratio = normalize(value, base)
                if ratio > 0:
                    log_sum += math.log(ratio)
                    count += 1
            out[scheme] = math.exp(log_sum / count) if count else 0.0
        return out
