"""Built-in erase schemes, registered with the scheme registry.

The six evaluated schemes — ``baseline``, ``iispe``, ``dpes``,
``mispe``, ``aero_cons``, ``aero`` — register themselves with
:data:`repro.experiments.SCHEMES` when this module is imported; the
registry module imports this one, so looking a key up anywhere
(``make_scheme``, ``build_ssd``, :class:`~repro.experiments.ExperimentSpec`,
the ``python -m repro`` CLI) always sees all six. Third-party schemes
plug in the same way without editing this file::

    @SCHEMES.register("my_scheme")
    def _build(profile, *, mispredict_rate=0.0, rber_requirement=None):
        return MyScheme(profile)

``make_scheme`` remains as a thin shim over ``SCHEMES.create`` for
existing callers.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.aero import AeroEraseScheme
from repro.core.ept import (
    build_aggressive_table,
    published_conservative_table,
)
from repro.core.felp import FelpPredictor
from repro.erase.dpes import DpesScheme
from repro.erase.iispe import IntelligentIspeScheme
from repro.erase.ispe import BaselineIspeScheme
from repro.erase.mispe import MIspeScheme
from repro.erase.scheme import EraseScheme
from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES
from repro.nand.chip_types import ChipProfile
from repro.nand.rber import RberModel

#: The paper's five comparison schemes, in presentation order
#: (Figure 13 / Table 4). ``mispe`` is evaluated separately (Section 5
#: characterization), so it is registered but not part of this tuple.
SCHEME_KEYS = ("baseline", "iispe", "dpes", "aero_cons", "aero")


@SCHEMES.register("baseline")
def _build_baseline(
    profile: ChipProfile,
    *,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """Baseline ISPE: fixed loop ladder, no adaptation."""
    return BaselineIspeScheme(profile)


@SCHEMES.register("iispe")
def _build_iispe(
    profile: ChipProfile,
    *,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """i-ISPE: per-block memorized loop counts (Section 3.3 baseline)."""
    return IntelligentIspeScheme(profile)


@SCHEMES.register("dpes")
def _build_dpes(
    profile: ChipProfile,
    *,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """DPES: dynamic erase-voltage scaling (Section 7 baseline)."""
    return DpesScheme(profile)


@SCHEMES.register("mispe")
def _build_mispe(
    profile: ChipProfile,
    *,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """m-ISPE: fine-grained sub-pulse stepping (characterization tool)."""
    return MIspeScheme(profile)


def _build_aero(
    profile: ChipProfile,
    aggressive: bool,
    mispredict_rate: float,
    rber_requirement: Optional[int],
) -> EraseScheme:
    if rber_requirement is not None and rber_requirement <= 0:
        raise ConfigError(
            f"rber_requirement must be positive, got {rber_requirement}"
        )
    conservative = published_conservative_table(profile)
    aggressive_table = None
    if aggressive:
        aggressive_table = build_aggressive_table(
            profile,
            conservative,
            rber_model=RberModel(profile),
            requirement_bits_per_kib=rber_requirement,
        )
    predictor = FelpPredictor(
        profile, conservative=conservative, aggressive=aggressive_table
    )
    return AeroEraseScheme(
        profile,
        predictor=predictor,
        aggressive=aggressive,
        mispredict_rate=mispredict_rate,
    )


@SCHEMES.register("aero_cons")
def _build_aero_cons(
    profile: ChipProfile,
    *,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """AEROcons: conservative EPT only (no aggressive reduction)."""
    return _build_aero(profile, False, mispredict_rate, rber_requirement)


@SCHEMES.register("aero")
def _build_aero_full(
    profile: ChipProfile,
    *,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """Full AERO: aggressive ECC-margin-aware under-erasure."""
    return _build_aero(profile, True, mispredict_rate, rber_requirement)


#: Every registered scheme key at import time (the six built-ins, in
#: registration order). Plugins registered later are visible through
#: ``SCHEMES.keys()``, which stays live.
ALL_SCHEME_KEYS: Tuple[str, ...] = SCHEMES.keys()


def make_scheme(
    profile: ChipProfile,
    key: str,
    mispredict_rate: float = 0.0,
    rber_requirement: Optional[int] = None,
) -> EraseScheme:
    """Instantiate one of the registered erase schemes (registry shim).

    ``mispredict_rate`` injects forced under-predictions into AERO
    (Figure 16 sensitivity); ``rber_requirement`` rebuilds AERO's
    aggressive table for a weaker ECC (Figure 17 sensitivity). Both are
    ignored by the non-AERO schemes. Unknown keys raise
    :class:`~repro.errors.ConfigError` listing every registered key.
    """
    return SCHEMES.create(
        key,
        profile,
        mispredict_rate=mispredict_rate,
        rber_requirement=rber_requirement,
    )
