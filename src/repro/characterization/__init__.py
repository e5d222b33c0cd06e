"""Virtual real-device characterization study (paper Section 5).

Substitutes the paper's FPGA testing platform + 160 physical chips with
the statistical device model, exposing the same experimental surface:
pulse-granular erase control, fail-bit readout, the MRBER after the
reference retention time, and per-block measurement campaigns behind
Figures 4 and 7-11.
"""

from repro.characterization.platform import TestPlatform
from repro.characterization.experiments import (
    EraseLatencyCdfResult,
    FailbitLinearityResult,
    FelpAccuracyResult,
    ReliabilityMarginResult,
    ShallowErasureResult,
    erase_latency_cdf,
    failbit_linearity,
    felp_accuracy,
    reliability_margin,
    shallow_erasure_sweep,
)
from repro.characterization.fitting import GammaDeltaFit, fit_gamma_delta

__all__ = [
    "EraseLatencyCdfResult",
    "FailbitLinearityResult",
    "FelpAccuracyResult",
    "GammaDeltaFit",
    "ReliabilityMarginResult",
    "ShallowErasureResult",
    "TestPlatform",
    "erase_latency_cdf",
    "failbit_linearity",
    "felp_accuracy",
    "fit_gamma_delta",
    "reliability_margin",
    "shallow_erasure_sweep",
]
