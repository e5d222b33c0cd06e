"""Paper reference values the benchmark scores the model against.

Source: AERO: Adaptive Erase Operation for Improving Lifetime and
Performance of Modern NAND Flash-Based SSDs (ASPLOS 2024),
arXiv 2404.10355. These are the paper's published figures, not
measurements of any hardware made here: the model's fidelity is judged
against them, and nothing else.
"""

from __future__ import annotations

#: arXiv 2404.10355, Fig. 13 (3D-TLC-48L chips): lifetime gain of each
#: scheme over Baseline — AERO +43 %, AEROcons +30 %, DPES +26 %,
#: i-ISPE -25 %.
FIG13_LIFETIME_GAIN = {
    "aero": 0.43,
    "aero_cons": 0.30,
    "dpes": 0.26,
    "iispe": -0.25,
}

#: arXiv 2404.10355, Fig. 14: AERO reduces the p99.99 read tail latency
#: by 22 % on average over Baseline, i.e. a ratio of 0.78. The model's
#: ratio is taken at p99, because a 900-request cell holds too few reads
#: for a p99.99 (the paper replays multi-hour traces), so the two are a
#: guide to each other, not like for like.
FIG14_AERO_READ_TAIL_RATIO = 0.78

#: The Fig. 13 sweep ``lifetime_gain_err`` is computed on. The seed is
#: fixed (not the run's seed) so the error repeats exactly unless the
#: modelled physics changes; it read 0.036 when the benchmark was set up.
REFERENCE_PROFILE = "3D-TLC-48L"
REFERENCE_SEED = 0xAE20


def lifetime_gain_err(comparison) -> float:
    """Mean absolute error of the simulated Fig. 13 gains vs the paper.

    ``comparison`` is a :class:`repro.lifetime.SchemeComparison` holding
    Baseline and every scheme of :data:`FIG13_LIFETIME_GAIN`.
    """
    errors = [
        abs(comparison.improvement(key) - gain)
        for key, gain in FIG13_LIFETIME_GAIN.items()
    ]
    return sum(errors) / len(errors)
