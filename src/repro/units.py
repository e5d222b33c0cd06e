"""Time and size units used throughout the library.

All simulator time is kept in **microseconds** (float). NAND datasheets
mix microseconds (``tR``, ``tPROG``) and milliseconds (``tBERS``), so the
module provides explicit constructors instead of letting bare numbers
float around the codebase.

Sizes are kept in **bytes** (int); logical block addresses address
``SECTOR_BYTES`` units, matching the block traces used in the paper's
evaluation (Table 3 workloads address 512-byte sectors).
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------

US = 1.0
MS = 1000.0


def us(value: float) -> float:
    """Express ``value`` microseconds in simulator time units."""
    return value * US


def ms(value: float) -> float:
    """Express ``value`` milliseconds in simulator time units."""
    return value * MS


# --- sizes ----------------------------------------------------------------

KIB = 1024

#: Logical sector size used by block traces (bytes).
SECTOR_BYTES = 512
