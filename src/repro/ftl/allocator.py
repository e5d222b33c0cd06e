"""Per-plane block allocation with separated write streams.

Each plane keeps a free-block pool and two open (active) blocks: one
for host writes and one for GC relocations. Separating the streams
keeps hot host data and cold relocated data from mixing in one block,
the standard practice the paper's simulated FTL follows.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Deque, List, Optional

from repro.errors import OutOfSpaceError
from repro.nand.block import Block
from repro.nand.geometry import PageAddress, PlaneAddress


class WriteStream(Enum):
    """Separated append streams within a plane."""

    HOST = "host"
    GC = "gc"


class PlaneAllocator:
    """Free pool + active blocks of one plane."""

    def __init__(self, address: PlaneAddress, blocks: List[Block]):
        self.address = address
        self.all_blocks: List[Block] = list(blocks)
        self._free: Deque[Block] = deque(blocks)
        self._active: dict[WriteStream, Optional[Block]] = {
            WriteStream.HOST: None,
            WriteStream.GC: None,
        }

    # --- free pool -------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Blocks in the free pool (excludes open active blocks)."""
        return len(self._free)

    def release(self, block: Block) -> None:
        """Return an erased block to the free pool."""
        self._free.append(block)

    def take_free_block(self) -> Block:
        """Pop one block from the free pool."""
        if not self._free:
            raise OutOfSpaceError(f"plane {self.address} has no free blocks")
        return self._free.popleft()

    # --- page allocation -----------------------------------------------------------

    def allocate_page(self, stream: WriteStream, lpn: Optional[int]) -> PageAddress:
        """Program-allocate the next page of the stream's active block.

        Opens a new block from the free pool when the active one fills.
        The block's page state is updated immediately (the simulator's
        state changes are instantaneous; timing is replayed separately).
        """
        block = self._active[stream]
        if block is None or block.is_full:
            block = self.take_free_block()
            self._active[stream] = block
        page = block.program(lpn)
        return block.address.page(page)

    # --- GC candidate enumeration -----------------------------------------------------

    def gc_candidates(self) -> List[Block]:
        """Blocks eligible as GC victims: closed and programmed."""
        active = {id(b) for b in self._active.values() if b is not None}
        free = {id(b) for b in self._free}
        return [
            block
            for block in self.all_blocks
            if id(block) not in active
            and id(block) not in free
            and block.write_pointer > 0
        ]
