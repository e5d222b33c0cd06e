"""Stateful erase block: pages, wear history, and erase characteristics.

A :class:`Block` ties together the three per-block models:

* page bookkeeping (free/valid/invalid + stored logical page numbers),
  which the FTL's allocator and garbage collector drive;
* the :class:`~repro.nand.erase_model.BlockEraseModel` process-variation
  draw that defines how hard the block is to erase at its current wear;
* the :class:`~repro.nand.erase_model.WearState` damage history that the
  RBER model converts into reliability.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Optional

from repro.errors import CommandError
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import BlockEraseModel, EraseState, WearState
from repro.nand.geometry import BlockAddress


class PageState(IntEnum):
    """Lifecycle of one physical page between erasures."""

    FREE = 0
    VALID = 1
    INVALID = 2


class Block:
    """One erase block of a simulated chip."""

    def __init__(
        self,
        address: BlockAddress,
        profile: ChipProfile,
        pages: int,
        seed: int,
        draws: Optional[dict] = None,
    ):
        self.address = address
        self.profile = profile
        self.page_count = pages
        self.erase_model = BlockEraseModel(
            profile, seed, address.channel, address.chip, address.plane,
            address.block, draws=draws,
        )
        self.wear = WearState()
        self._page_states: List[PageState] = [PageState.FREE] * pages
        self._page_lpns: List[Optional[int]] = [None] * pages
        self.write_pointer = 0
        self.valid_count = 0

    @property
    def rber_sensitivity(self) -> float:
        """Block wear-rate draw normalized to the profile mean.

        Couples erase difficulty to reliability: hard-to-erase blocks
        (high rate) are also the error-prone ones (Figure 10a spread).
        """
        return self.erase_model.rate / self.profile.erase_work.rate_mean

    # --- page bookkeeping ---------------------------------------------------------

    def page_state(self, page: int) -> PageState:
        """State of physical page ``page``."""
        return self._page_states[page]

    def page_lpn(self, page: int) -> Optional[int]:
        """Logical page stored at physical page ``page`` (None if free)."""
        return self._page_lpns[page]

    @property
    def free_pages(self) -> int:
        """Pages still programmable (NAND programs in order)."""
        return self.page_count - self.write_pointer

    @property
    def invalid_count(self) -> int:
        """Pages holding stale data (GC reclaim potential)."""
        return self.write_pointer - self.valid_count

    @property
    def is_full(self) -> bool:
        return self.write_pointer >= self.page_count

    def iter_valid_pages(self):
        """Yield ``(page_index, lpn)`` for every valid page."""
        for index in range(self.write_pointer):
            if self._page_states[index] is PageState.VALID:
                yield index, self._page_lpns[index]

    # --- NAND command effects -------------------------------------------------------

    def program(self, lpn: Optional[int]) -> int:
        """Program the next free page (erase-before-write, in-order).

        Returns the physical page index used. ``lpn`` may be ``None``
        for metadata/padding writes.
        """
        if self.is_full:
            raise CommandError(f"block {self.address} has no free pages")
        page = self.write_pointer
        self._page_states[page] = PageState.VALID
        self._page_lpns[page] = lpn
        self.write_pointer += 1
        self.valid_count += 1
        return page

    def invalidate(self, page: int) -> None:
        """Mark a previously valid page stale (overwritten or moved by GC)."""
        if self._page_states[page] is not PageState.VALID:
            raise CommandError(
                f"page {page} of {self.address} is not valid (state "
                f"{self._page_states[page].name})"
            )
        self._page_states[page] = PageState.INVALID
        self._page_lpns[page] = None
        self.valid_count -= 1

    # --- erase lifecycle ---------------------------------------------------------

    def begin_erase(self) -> EraseState:
        """Start an erase operation at the block's current wear age."""
        return self.erase_model.begin_erase(self.wear.age_kilocycles)

    def finish_erase(
        self,
        state: EraseState,
        residual_fail_bits: int = 0,
        cycles: int = 1,
        nispe: Optional[int] = None,
    ) -> None:
        """Account a completed (or accepted under-erased) operation.

        Resets all pages to FREE and records damage-normalized aging.
        ``cycles`` lets coarse-grained lifetime simulations account one
        representative erase for many identical cycles. ``nispe``
        overrides the loop count recorded for the under-erase penalty
        (AERO's aggressive skip leaves the ladder one loop early).
        """
        if nispe is None:
            nispe = max(1, state.loop)
        self.wear.record_erase(
            self.erase_model,
            state.damage,
            residual_fail_bits=residual_fail_bits,
            nispe=nispe,
            cycles=cycles,
            baseline=state.baseline_damage,
        )
        # Reset the page lists in place, and only up to the write
        # pointer — pages past it were never programmed since the last
        # erase, so they are already FREE/None.
        wp = self.write_pointer
        self._page_states[:wp] = [PageState.FREE] * wp
        self._page_lpns[:wp] = [None] * wp
        self.write_pointer = 0
        self.valid_count = 0

    def __repr__(self) -> str:
        return (
            f"Block({self.address}, pec={self.wear.pec}, "
            f"valid={self.valid_count}/{self.page_count})"
        )
