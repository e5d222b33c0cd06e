"""Model fitting over characterization data.

``fit_gamma_delta`` recovers the Figure 7 regularities — the per-pulse
fail-bit slope ``delta`` and the one-pulse-left floor ``gamma`` — from
m-ISPE fail-bit traces, exactly the two values the paper says suffice
to implement FELP on a new chip type (Section 5.2 conclusion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class GammaDeltaFit:
    """Fitted fail-bit regularities of one chip type."""

    gamma: float
    delta: float
    #: Linear-fit determination coefficient of the slope region.
    r_squared: float
    samples: int

    def within(self, gamma_tol: float, delta_tol: float, profile) -> bool:
        """Whether the fit matches the profile within tolerances."""
        return (
            abs(self.gamma - profile.gamma) <= gamma_tol * profile.gamma
            and abs(self.delta - profile.delta) <= delta_tol * profile.delta
        )


def fit_gamma_delta(
    traces: Sequence[Sequence[int]],
) -> GammaDeltaFit:
    """Fit gamma/delta from m-ISPE per-pulse fail-bit traces.

    Each trace is the fail-bit count after every 0.5 ms pulse of one
    erase. ``gamma`` is estimated from the count one pulse before
    completion; ``delta`` from a least-squares line over the linear
    region (counts between ~1 and ~6 delta-equivalents, excluding the
    gamma floor and the saturation plateau).
    """
    gamma_samples: List[float] = []
    xs: List[float] = []
    ys: List[float] = []
    for trace in traces:
        if len(trace) < 2:
            continue
        # The last reading passed (below FPASS); the one before it is
        # the one-pulse-left gamma reading.
        gamma_samples.append(float(trace[-2]))
        # Build (pulses-remaining, fail-bits) pairs for the slope,
        # restricted to the FELP operating range (<= 7 pulses left):
        # beyond FHIGH the count saturates (every bitline fails) and
        # would flatten the fitted line.
        total = len(trace)
        for pulse_index, fail_bits in enumerate(trace[:-1]):
            remaining = total - (pulse_index + 1)
            if 2 <= remaining <= 7:
                xs.append(float(remaining))
                ys.append(float(fail_bits))
    if not gamma_samples or len(xs) < 4:
        raise ConfigError("not enough trace data to fit gamma/delta")
    gamma = float(np.median(gamma_samples))
    x = np.asarray(xs)
    y = np.asarray(ys)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return GammaDeltaFit(
        gamma=gamma,
        delta=float(slope),
        r_squared=r_squared,
        samples=len(gamma_samples),
    )
