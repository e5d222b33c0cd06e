"""Characterization experiment drivers (Figures 4 and 7-11).

Each driver reproduces one measurement campaign from the paper's
Section 5, returning a structured result the benchmarks render and
assert on. All campaigns use the m-ISPE methodology (0.5 ms loops,
voltage step every 7 loops) to observe minimum erase latencies and
fail-bit trajectories, exactly as the paper does, and measure each
PEC point's block population in one batch through the m-ISPE batch
kernel (:class:`~repro.kernels.MispeBatchKernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.fitting import GammaDeltaFit, fit_gamma_delta
from repro.characterization.platform import TestPlatform
from repro.core.ept import FelpSample
from repro.errors import ConfigError
from repro.kernels import BlockArrayState, MispeBatchKernel
from repro.nand.block import Block
from repro.rng import derive_rng


# --------------------------------------------------------------------------------------
# Figure 4: erase-latency CDF vs P/E cycles
# --------------------------------------------------------------------------------------


@dataclass
class EraseLatencyCdfResult:
    """mtBERS distribution and NISPE histogram per PEC point."""

    pec_points: List[int]
    #: pec -> sorted mtBERS values (ms) across sampled blocks.
    mtbers_ms: Dict[int, List[float]] = field(default_factory=dict)
    #: pec -> {NISPE: block count}.
    nispe_histogram: Dict[int, Dict[int, int]] = field(default_factory=dict)

    def single_loop_fraction(self, pec: int) -> float:
        histogram = self.nispe_histogram[pec]
        total = sum(histogram.values())
        return histogram.get(1, 0) / total if total else 0.0

    def min_loops(self, pec: int) -> int:
        return min(self.nispe_histogram[pec])

    def max_loops(self, pec: int) -> int:
        return max(self.nispe_histogram[pec])

    def std_ms(self, pec: int) -> float:
        return float(np.std(self.mtbers_ms[pec]))

    def fraction_below_ms(self, pec: int, threshold_ms: float) -> float:
        values = self.mtbers_ms[pec]
        return sum(1 for v in values if v <= threshold_ms) / len(values)


def erase_latency_cdf(
    platform: TestPlatform,
    pec_points: Sequence[int] = (0, 1000, 2000, 3000, 4000, 5000),
    blocks_per_point: int = 200,
) -> EraseLatencyCdfResult:
    """Measure mtBERS across the population at each PEC point (m-ISPE).

    The headline quantities (NISPE, mtBERS) are deterministic in each
    block's required-work draw, so the batch kernel's values equal
    per-block :meth:`~repro.erase.mispe.MIspeScheme.measure` results.
    """
    kernel = MispeBatchKernel(platform.profile)
    result = EraseLatencyCdfResult(pec_points=list(pec_points))
    for pec in pec_points:
        histogram: Dict[int, int] = {}
        state = BlockArrayState.from_blocks(
            platform.sample_blocks(pec, blocks_per_point)
        )
        _, nispe, mtbers_us = kernel.measure_batch(state)
        values = list(mtbers_us / 1000.0)
        for loops, count in zip(*np.unique(nispe, return_counts=True)):
            histogram[int(loops)] = int(count)
        result.mtbers_ms[pec] = sorted(values)
        result.nispe_histogram[pec] = histogram
    return result


# --------------------------------------------------------------------------------------
# Figure 7: fail-bit count vs accumulated tEP in the final loop
# --------------------------------------------------------------------------------------


@dataclass
class FailbitLinearityResult:
    """Per-NISPE fail-bit-vs-tEP series and the fitted gamma/delta."""

    #: nispe -> list of (accumulated final-loop tEP ms, max fail bits).
    series: Dict[int, List[Tuple[float, float]]]
    #: nispe -> fitted regularities.
    fits: Dict[int, GammaDeltaFit]
    overall: GammaDeltaFit


def failbit_linearity(
    platform: TestPlatform,
    pec_points: Sequence[int] = (2000, 3000, 4000, 5000),
    blocks_per_point: int = 120,
) -> FailbitLinearityResult:
    """Reproduce Figure 7: F falls by ~delta per 0.5 ms, floors at gamma.

    Each PEC point's fail-bit traces come from one batch through the
    m-ISPE kernel (the per-block verify-read model, on a kernel-local
    noise stream).
    """
    kernel = MispeBatchKernel(platform.profile)
    rng = derive_rng(platform.seed, "fig7")
    per_loop = platform.profile.pulses_per_loop
    traces_by_nispe: Dict[int, List[List[int]]] = {}
    for pec in pec_points:
        state = BlockArrayState.from_blocks(
            platform.sample_blocks(pec, blocks_per_point)
        )
        required, traces = kernel.trace_batch(state, rng)
        nispe = (required + per_loop - 1) // per_loop
        for index in range(state.count):
            if nispe[index] < 2:
                continue
            traces_by_nispe.setdefault(int(nispe[index]), []).append(
                traces[index, : required[index]].tolist()
            )
    if not traces_by_nispe:
        raise ConfigError("no multi-loop blocks found; raise the PEC points")
    series: Dict[int, List[Tuple[float, float]]] = {}
    fits: Dict[int, GammaDeltaFit] = {}
    quantum_ms = platform.profile.pulse_quantum_us / 1000.0
    all_traces: List[List[int]] = []
    for nispe, traces in sorted(traces_by_nispe.items()):
        all_traces.extend(traces)
        # Max F at each accumulated tEP position within the final loop.
        max_at: Dict[int, float] = {}
        for trace in traces:
            final_start = per_loop * (nispe - 1)
            for offset, fail_bits in enumerate(trace[final_start:]):
                max_at[offset + 1] = max(max_at.get(offset + 1, 0.0), float(fail_bits))
        series[nispe] = [
            (pulses * quantum_ms, value) for pulses, value in sorted(max_at.items())
        ]
        fits[nispe] = fit_gamma_delta(traces)
    overall = fit_gamma_delta(all_traces)
    return FailbitLinearityResult(series=series, fits=fits, overall=overall)


# --------------------------------------------------------------------------------------
# Figure 8: FELP accuracy — P(mtEP(N) | fail-bit range of F(N-1))
# --------------------------------------------------------------------------------------


@dataclass
class FelpAccuracyResult:
    """Joint distribution of predictor input vs ground truth."""

    #: nispe -> {range_index: {mtEP_pulses: count}}.
    joint: Dict[int, Dict[int, Dict[int, int]]]
    #: Samples usable to build an EPT (see repro.core.ept).
    samples: List[FelpSample]

    def majority_fraction(self, nispe: int) -> float:
        """Weighted share of each range's most common mtEP (paper >=66 %)."""
        buckets = self.joint.get(nispe, {})
        total = 0
        majority = 0
        for counts in buckets.values():
            if not counts:
                continue
            total += sum(counts.values())
            majority += max(counts.values())
        return majority / total if total else 0.0

    def conservative_coverage(self, profile) -> float:
        """Fraction of samples whose Table-1 prediction was sufficient."""
        if not self.samples:
            return 0.0
        from repro.core.ept import published_conservative_table

        table = published_conservative_table(profile)
        covered = sum(
            1
            for sample in self.samples
            if table.lookup_pulses(profile, sample.loop, sample.fail_bits)
            >= sample.remaining_pulses
        )
        return covered / len(self.samples)


def felp_accuracy(
    platform: TestPlatform,
    pec_points: Sequence[int] = (1000, 2000, 3000, 4000, 5000),
    blocks_per_point: int = 160,
) -> FelpAccuracyResult:
    """Reproduce Figure 8: F(N-1) conservatively predicts mtEP(N).

    Each PEC point's fail-bit traces come from one batch through the
    m-ISPE kernel, as in the Figure 7 campaign.
    """
    kernel = MispeBatchKernel(platform.profile)
    rng = derive_rng(platform.seed, "fig8")
    profile = platform.profile
    per_loop = profile.pulses_per_loop
    joint: Dict[int, Dict[int, Dict[int, int]]] = {}
    samples: List[FelpSample] = []
    for pec in pec_points:
        state = BlockArrayState.from_blocks(
            platform.sample_blocks(pec, blocks_per_point)
        )
        required, traces = kernel.trace_batch(state, rng)
        for work, trace in zip(required.tolist(), traces):
            nispe = (work + per_loop - 1) // per_loop
            if nispe >= 2:
                f_prev = int(trace[per_loop * (nispe - 1) - 1])
                remaining = work - per_loop * (nispe - 1)
                range_index = profile.failbit_range_index(f_prev)
                joint.setdefault(nispe, {}).setdefault(range_index, {})
                bucket = joint[nispe][range_index]
                bucket[remaining] = bucket.get(remaining, 0) + 1
                samples.append(
                    FelpSample(
                        loop=nispe, fail_bits=f_prev, remaining_pulses=remaining
                    )
                )
            elif work > 2:
                # Single-loop block: the shallow probe's F(0) predicts
                # the remainder (EPT row 1).
                f0 = int(trace[1])
                samples.append(
                    FelpSample(loop=1, fail_bits=f0, remaining_pulses=work - 2)
                )
    return FelpAccuracyResult(joint=joint, samples=samples)


# --------------------------------------------------------------------------------------
# Figure 9: shallow erasure feasibility and tSE selection
# --------------------------------------------------------------------------------------


@dataclass
class ShallowErasureResult:
    """F(0) distribution and achievable tBERS per (tSE, PEC)."""

    #: (tse_pulses, pec) -> histogram of fail-bit range indices of F(0).
    f0_ranges: Dict[Tuple[int, int], Dict[int, int]]
    #: (tse_pulses, pec) -> average achievable single-loop tBERS (ms).
    avg_tbers_ms: Dict[Tuple[int, int], float]
    #: (tse_pulses, pec) -> fraction of blocks finishing below default tEP.
    reduced_fraction: Dict[Tuple[int, int], float]


def shallow_erasure_sweep(
    platform: TestPlatform,
    tse_pulses_options: Sequence[int] = (1, 2, 3, 4),
    pec_points: Sequence[int] = (100, 500),
    blocks_per_point: int = 200,
) -> ShallowErasureResult:
    """Reproduce Figure 9: sweep the shallow-probe length.

    For each block the campaign measures F(0) after ``tSE`` and the
    single-loop erase latency achievable with the conservative
    remainder prediction: ``tSE + tVR + tRE + tVR`` (capped at the
    default loop when no reduction is possible). Each (tSE, PEC)
    population's fail-bit traces come from one batch through the m-ISPE
    kernel.
    """
    profile = platform.profile
    kernel = MispeBatchKernel(profile)
    rng = derive_rng(platform.seed, "fig9")
    per_loop = profile.pulses_per_loop
    quantum_ms = profile.pulse_quantum_us / 1000.0
    t_vr_ms = profile.t_vr_us / 1000.0
    from repro.core.ept import published_conservative_table

    table = published_conservative_table(profile)
    f0_ranges: Dict[Tuple[int, int], Dict[int, int]] = {}
    avg_tbers: Dict[Tuple[int, int], float] = {}
    reduced: Dict[Tuple[int, int], float] = {}
    for tse in tse_pulses_options:
        if not 1 <= tse < per_loop:
            raise ConfigError(f"tSE of {tse} pulses is not a shallow probe")
        for pec in pec_points:
            histogram: Dict[int, int] = {}
            latencies: List[float] = []
            reduced_count = 0
            state = BlockArrayState.from_blocks(
                platform.sample_blocks(pec, blocks_per_point)
            )
            required, traces = kernel.trace_batch(state, rng)
            for work, trace in zip(required.tolist(), traces):
                trace = trace[:work]
                if work <= tse:
                    # Probe alone completes the erase.
                    f0 = int(trace[-1])
                    range_index = 0
                    t_total = tse * quantum_ms + t_vr_ms
                    reduced_count += 1
                else:
                    f0 = int(trace[tse - 1])
                    range_index = profile.failbit_range_index(f0)
                    remainder = table.lookup_pulses(profile, 1, f0)
                    remainder = min(remainder, per_loop - tse)
                    total_pulses = tse + remainder
                    if total_pulses < per_loop:
                        reduced_count += 1
                    t_total = total_pulses * quantum_ms + 2 * t_vr_ms
                    if work > per_loop:
                        # Multi-loop block: Figure 9 reports the first
                        # loop only; the probe still caps at default.
                        t_total = per_loop * quantum_ms + 2 * t_vr_ms
                histogram[range_index] = histogram.get(range_index, 0) + 1
                latencies.append(t_total)
            key = (tse, pec)
            f0_ranges[key] = histogram
            avg_tbers[key] = float(np.mean(latencies))
            reduced[key] = reduced_count / state.count
    return ShallowErasureResult(
        f0_ranges=f0_ranges, avg_tbers_ms=avg_tbers, reduced_fraction=reduced
    )


# --------------------------------------------------------------------------------------
# Figures 10 & 11: reliability margin of insufficient erasure
# --------------------------------------------------------------------------------------


@dataclass
class ReliabilityMarginResult:
    """Max MRBER after complete vs insufficient erasure."""

    profile_name: str
    requirement: int
    capability: int
    #: nispe -> max MRBER across blocks after complete erasure.
    complete_max: Dict[int, float]
    #: (nispe, range_index_of_F(N-1)) -> max MRBER after skipping EP(N).
    insufficient_max: Dict[Tuple[int, int], float]

    def safe(self, nispe: int, range_index: int) -> bool:
        """Whether skipping the final loop meets the RBER requirement."""
        key = (nispe, range_index)
        if key not in self.insufficient_max:
            return False
        return self.insufficient_max[key] <= self.requirement

    def safe_conditions(self) -> List[Tuple[int, int]]:
        """All (NISPE, range) pairs safe to under-erase (paper: C1, C2)."""
        return sorted(
            key for key in self.insufficient_max if self.safe(*key)
        )


def reliability_margin(
    platform: TestPlatform,
    pec_points: Sequence[int] = (500, 1500, 2500, 3500, 4500),
    blocks_per_point: int = 150,
    requirement: Optional[int] = None,
) -> ReliabilityMarginResult:
    """Reproduce Figure 10: the margin left for aggressive reduction.

    For every sampled block, two clones are treated: one erased
    completely (NISPE loops at minimum latency) and one insufficiently
    (only NISPE-1 loops, leaving F(N-1) fail bits). Both then take the
    reference 1-year retention bake and report MRBER.

    The insufficient branch's residual fail-bit counts come from one
    batch per PEC point through the m-ISPE kernel (F(N-1) read off the
    batch trace); the erase physics and MRBER bake run on the real
    block clones.
    """
    profile = platform.profile
    kernel = MispeBatchKernel(profile)
    ecc = profile.ecc
    requirement = requirement if requirement is not None else ecc.requirement_bits_per_kib
    rng = derive_rng(platform.seed, "fig10")
    per_loop = profile.pulses_per_loop
    complete_max: Dict[int, float] = {}
    insufficient_max: Dict[Tuple[int, int], float] = {}
    for pec in pec_points:
        indices = [
            (index * 7) % platform.block_count
            for index in range(blocks_per_point)
        ]
        # Probe clones feed the batch; the jitter stream of each model
        # restarts per clone, so the probes' required work matches the
        # per-block clones erased below.
        probes = [platform.block_at(i, pec) for i in indices]
        _, traces = kernel.trace_batch(
            BlockArrayState.from_blocks(probes), rng
        )
        for position, block_index in enumerate(indices):
            # --- complete erasure -------------------------------------
            complete = platform.block_at(block_index, pec)
            state = complete.begin_erase()
            nispe = _erase_completely(complete, state, per_loop)
            mrber = platform.measure_mrber(complete)
            complete_max[nispe] = max(complete_max.get(nispe, 0.0), mrber)
            # --- insufficient erasure (skip the final loop) ------------
            if nispe < 2:
                continue
            insufficient = platform.block_at(block_index, pec)
            state = insufficient.begin_erase()
            fail_bits = int(traces[position, per_loop * (nispe - 1) - 1])
            for loop in range(1, nispe):
                state.start_loop(loop)
                state.apply_pulses(per_loop)
            insufficient.finish_erase(
                state, residual_fail_bits=fail_bits, nispe=nispe
            )
            range_index = profile.failbit_range_index(fail_bits)
            mrber = platform.measure_mrber(insufficient)
            key = (nispe, range_index)
            insufficient_max[key] = max(insufficient_max.get(key, 0.0), mrber)
    return ReliabilityMarginResult(
        profile_name=profile.name,
        requirement=requirement,
        capability=ecc.capability_bits_per_kib,
        complete_max=complete_max,
        insufficient_max=insufficient_max,
    )


def _erase_completely(block: Block, state, per_loop: int) -> int:
    """Erase with exactly the minimum work; returns NISPE."""
    required = state.required
    nispe = (required + per_loop - 1) // per_loop
    for loop in range(1, nispe + 1):
        state.start_loop(loop)
        pulses = per_loop if loop < nispe else required - per_loop * (nispe - 1)
        state.apply_pulses(pulses)
    block.finish_erase(state)
    return nispe
