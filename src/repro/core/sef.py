"""SEF: Shallow Erasure Flags.

One bit per block tracking whether shallow erasure is still worthwhile.
Bits start at 0, which the paper's encoding translates to TRUE so that
fresh blocks (zero P/E cycles, easiest to erase) always get the shallow
probe; once remainder erasure can no longer shorten the first loop the
flag flips, and future erases of that block start directly with the
full-length ``EP(1)``, avoiding the useless ``VR(0)`` (Figure 12,
step 5).

Storage overhead matches the paper's analysis: 1 bit per ~10 MB block,
i.e. ~12.5 KB for a 1 TB SSD.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class ShallowEraseFlags:
    """Bitmap of per-block shallow-erasure flags."""

    def __init__(self, block_count: int):
        if block_count <= 0:
            raise ConfigError("SEF needs at least one block")
        # Raw bit 0 == shallow erasure enabled (paper's encoding).
        self._raw = np.zeros(block_count, dtype=bool)

    def __len__(self) -> int:
        return self._raw.size

    def shallow_enabled(self, block_index: int) -> bool:
        """Whether block ``block_index`` should get the shallow probe."""
        return not bool(self._raw[block_index])

    def disable_shallow(self, block_index: int) -> None:
        """Mark shallow erasure useless for this block (raw bit -> 1)."""
        self._raw[block_index] = True

    @property
    def enabled_count(self) -> int:
        """Blocks still using shallow erasure."""
        return int((~self._raw).sum())

    @property
    def storage_bytes(self) -> int:
        """DRAM footprint (1 bit per block, rounded up)."""
        return (self._raw.size + 7) // 8
