"""AEROFTL: the AERO-enabled flash translation layer (paper Section 6).

Extends the conventional page-level FTL with the two AERO data
structures:

* the **Erase-timing Parameter Table** (owned by the AERO scheme's FELP
  predictor) queried with fail-bit counts obtained via GET FEATURE, and
* the **Shallow Erasure Flags** bitmap, one bit per block, deciding
  whether the next erase of a block starts with the shallow probe.

The FTL follows the erase sequence the paper describes (Figure 12):
consult the SEF, SET FEATURE the pulse length for each EP step, GET
FEATURE the fail-bit count after each VR step, and flip the SEF bit
when remainder erasure can no longer shorten the first loop. The
scheme drives the block's erase state directly; the FTL counts the
command traffic so the overhead analysis can be reproduced.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import SsdSpec
from repro.core.aero import AeroEraseScheme
from repro.core.sef import ShallowEraseFlags
from repro.erase.scheme import EraseOperationResult, SegmentKind
from repro.errors import ConfigError
from repro.ftl.ftl import PageLevelFtl
from repro.nand.block import Block
from repro.nand.chip import NandChip


class AeroFtl(PageLevelFtl):
    """Page-level FTL with AERO erase management."""

    def __init__(
        self,
        spec: SsdSpec,
        chips: Sequence[NandChip],
        scheme: AeroEraseScheme,
        rng: Optional[np.random.Generator] = None,
    ):
        if not isinstance(scheme, AeroEraseScheme):
            raise ConfigError("AeroFtl requires an AeroEraseScheme")
        super().__init__(spec, chips, scheme, rng)
        self.sef = ShallowEraseFlags(spec.geometry.blocks)
        self.set_feature_commands = 0
        self.get_feature_commands = 0

    @property
    def aero_scheme(self) -> AeroEraseScheme:
        return self.scheme  # narrowed type

    @property
    def ept(self):
        """The conservative EPT backing FELP (Table 1 t1)."""
        return self.aero_scheme.predictor.conservative

    # --- AERO erase path -------------------------------------------------------------

    def _erase_block(self, block: Block) -> EraseOperationResult:
        """Erase via AERO, driving SEF and feature-command accounting."""
        block_index = self.spec.geometry.block_index(block.address)
        use_shallow = self.sef.shallow_enabled(block_index)
        result = self.aero_scheme.erase(
            block, self.rng, use_shallow=use_shallow
        )
        if result.used_shallow_erase and not result.shallow_erase_useful:
            # Remainder erasure could not shorten the first loop: skip
            # the probe (and its VR) for this block from now on.
            self.sef.disable_shallow(block_index)
        # Command accounting (Figure 12): one SET FEATURE per EP step
        # whose length differs from the default, one GET FEATURE per VR.
        default_pulses = self.spec.profile.pulses_per_loop
        for segment in result.segments:
            if segment.kind is SegmentKind.ERASE_PULSE:
                if segment.pulses != default_pulses:
                    self.set_feature_commands += 1
            else:
                self.get_feature_commands += 1
        self.stats.record_erase(result.scheme, result.latency_us, result.total_pulses)
        return result

    # --- overhead report (paper Section 6, "Implementation Overhead") -------------------

    def overhead_report(self) -> dict:
        """Storage and command overhead of the AERO structures."""
        return {
            "ept_entries": self.ept.entry_count,
            "ept_bytes": self.ept.storage_bytes,
            "sef_bytes": self.sef.storage_bytes,
            "sef_fraction_of_capacity": (
                self.sef.storage_bytes / self.spec.geometry.capacity_bytes
            ),
            "set_feature_commands": self.set_feature_commands,
            "get_feature_commands": self.get_feature_commands,
            "erases": self.stats.erases,
        }
