"""MSR Cambridge trace format (Narayanan et al., TOS 2008).

CSV rows: ``timestamp,hostname,disknum,type,offset,size,responsetime``
with Windows filetime timestamps (100 ns ticks), byte offsets/sizes,
and ``Read``/``Write`` type strings. The loader normalizes timestamps
to microseconds from trace start and byte ranges to sectors.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Union

from repro.errors import TraceError
from repro.units import SECTOR_BYTES
from repro.workloads.trace import Trace, TraceRequest

#: Windows filetime ticks per microsecond.
_TICKS_PER_US = 10.0


def load_msrc_csv(path: Union[str, Path], name: str | None = None) -> Trace:
    """Load an MSRC-format CSV trace file."""
    path = Path(path)
    requests: List[TraceRequest] = []
    first_ticks: float | None = None
    with path.open(newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 6:
                raise TraceError(f"{path}:{line_no}: expected >=6 columns")
            try:
                ticks = float(row[0])
                kind = row[3].strip().lower()
                offset = int(row[4])
                size = int(row[5])
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}")
            if kind not in ("read", "write"):
                raise TraceError(f"{path}:{line_no}: unknown op {row[3]!r}")
            if first_ticks is None:
                first_ticks = ticks
            arrival_us = (ticks - first_ticks) / _TICKS_PER_US
            requests.append(
                TraceRequest(
                    arrival_us=max(0.0, arrival_us),
                    lba=offset // SECTOR_BYTES,
                    sectors=max(1, (size + SECTOR_BYTES - 1) // SECTOR_BYTES),
                    is_read=(kind == "read"),
                )
            )
    requests.sort(key=lambda r: r.arrival_us)
    return Trace(requests, name=name or path.stem)

