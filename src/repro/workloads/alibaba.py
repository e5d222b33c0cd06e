"""Alibaba cloud block-storage trace format (Li et al., IISWC 2020).

CSV rows: ``device_id,opcode,offset,length,timestamp`` with byte
offsets/lengths, ``R``/``W`` opcodes, and microsecond timestamps.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import TraceError
from repro.units import SECTOR_BYTES
from repro.workloads.trace import Trace, TraceRequest


def load_alibaba_csv(
    path: Union[str, Path],
    name: str | None = None,
    device_id: Optional[int] = None,
) -> Trace:
    """Load an Alibaba-format CSV trace (optionally one device only)."""
    path = Path(path)
    requests: List[TraceRequest] = []
    first_us: float | None = None
    with path.open(newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 5:
                raise TraceError(f"{path}:{line_no}: expected >=5 columns")
            try:
                device = int(row[0])
                opcode = row[1].strip().upper()
                offset = int(row[2])
                length = int(row[3])
                timestamp_us = float(row[4])
            except ValueError as exc:
                raise TraceError(f"{path}:{line_no}: {exc}")
            if device_id is not None and device != device_id:
                continue
            if opcode not in ("R", "W"):
                raise TraceError(f"{path}:{line_no}: unknown opcode {row[1]!r}")
            if first_us is None:
                first_us = timestamp_us
            requests.append(
                TraceRequest(
                    arrival_us=max(0.0, timestamp_us - first_us),
                    lba=offset // SECTOR_BYTES,
                    sectors=max(1, (length + SECTOR_BYTES - 1) // SECTOR_BYTES),
                    is_read=(opcode == "R"),
                )
            )
    requests.sort(key=lambda r: r.arrival_us)
    return Trace(requests, name=name or path.stem)

