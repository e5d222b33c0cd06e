"""Page-level logical-to-physical mapping (DFTL-style, Gupta et al. [70]).

The table is lazily populated (a dict), which lets the simulator model
a terabyte-scale logical space while only paying for the pages a trace
touches. The physical side of the mapping (which LPN a physical page
holds) lives in :class:`repro.nand.block.Block`, giving the GC its
reverse map.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import MappingError
from repro.nand.geometry import PageAddress


class PageMappingTable:
    """LPN -> physical page address map."""

    def __init__(self, logical_pages: int):
        if logical_pages <= 0:
            raise MappingError("logical space must be positive")
        self.logical_pages = logical_pages
        self._map: Dict[int, PageAddress] = {}

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise MappingError(
                f"LPN {lpn} outside logical space [0, {self.logical_pages})"
            )

    def lookup(self, lpn: int) -> Optional[PageAddress]:
        """Physical location of ``lpn`` (None if never written)."""
        self.check_lpn(lpn)
        return self._map.get(lpn)

    def update(self, lpn: int, address: PageAddress) -> Optional[PageAddress]:
        """Point ``lpn`` at ``address``; returns the previous location."""
        self.check_lpn(lpn)
        previous = self._map.get(lpn)
        self._map[lpn] = address
        return previous

    def points_at(self, lpn: int, address: PageAddress) -> bool:
        """Whether ``lpn`` currently maps to ``address`` (GC guard)."""
        return self._map.get(lpn) == address

    def items(self) -> Iterator[Tuple[int, PageAddress]]:
        return iter(self._map.items())

    @property
    def mapped_count(self) -> int:
        return len(self._map)
