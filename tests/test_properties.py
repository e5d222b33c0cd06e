"""Property-based tests (hypothesis) on core invariants."""

import dataclasses
import math
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.core.ept import (
    published_aggressive_table,
    published_conservative_table,
)
from repro.core.felp import FelpPredictor
from repro.erase.suspension import SegmentCursor
from repro.ftl.mapping import PageMappingTable
from repro.nand.chip_types import TLC_3D_48L
from repro.nand.erase_model import BlockEraseModel, EraseState
from repro.nand.geometry import BlockAddress, NandGeometry, PageAddress
from repro.rng import make_rng
from repro.sim.engine import Simulator

PROFILE = TLC_3D_48L


@given(
    required=st.integers(min_value=1, max_value=35),
    pulse_plan=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=10),
)
def test_erase_state_progress_invariants(required, pulse_plan):
    """Progress never decreases and never exceeds the voltage cap."""
    state = EraseState(required=required, profile=PROFILE)
    loop = 0
    last_progress = 0.0
    for pulses in pulse_plan:
        loop = min(loop + 1, PROFILE.max_loops)
        if loop > state.loop:
            state.start_loop(loop)
        state.apply_pulses(pulses)
        assert state.progress >= last_progress
        assert state.progress <= 7 * state.loop + 1e-9
        last_progress = state.progress


@given(
    age=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_required_pulses_bounds(age, seed):
    model = BlockEraseModel(PROFILE, seed)
    pulses = model.deterministic_pulses(age)
    assert 1 <= pulses <= PROFILE.max_pulses
    # Monotone in age.
    assert model.deterministic_pulses(age + 0.5) >= pulses


@given(fail_bits=st.integers(min_value=0, max_value=10 * PROFILE.delta))
def test_felp_prediction_bounds(fail_bits):
    """Predictions are within [0, default]; aggressive never exceeds
    conservative; above FHIGH both fall back to the default pulse."""
    predictor = FelpPredictor(
        PROFILE,
        conservative=published_conservative_table(PROFILE),
        aggressive=published_aggressive_table(PROFILE),
    )
    for loop in range(1, 6):
        cons = predictor.predict(loop, fail_bits, use_margin=False)
        aggr = predictor.predict(loop, fail_bits, use_margin=True)
        assert 0 <= aggr.pulses <= cons.pulses <= 7
        if fail_bits > PROFILE.f_high_deltas * PROFILE.delta:
            assert cons.pulses == 7 and not cons.reduced


CONSERVATIVE = FelpPredictor(
    PROFILE, conservative=published_conservative_table(PROFILE)
)


def _conservative_prediction(profile, remaining, seed):
    """Conservative FELP pulses for a block with ``remaining`` pulses
    left after a 7-pulse first loop, measured with ``profile``'s noise."""
    state = EraseState(required=7 + remaining, profile=profile)
    state.start_loop(1)
    state.apply_pulses(7)
    fail_bits = state.verify_read(make_rng(seed))
    return CONSERVATIVE.predict(2, fail_bits).pulses


@given(
    remaining=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60)
def test_conservative_table_covers_true_remaining(remaining, seed):
    """Without verify-read noise, the measured fail-bit count of a block
    with r pulses left maps to a conservative prediction of at least r."""
    quiet = dataclasses.replace(PROFILE, failbit_noise=0.0)
    assert _conservative_prediction(quiet, remaining, seed) >= remaining


def test_conservative_table_rarely_underpredicts_with_noise():
    """The profile's 4 % multiplicative verify-read noise makes the
    conservative table under-predict now and then (the Figure 8 bench
    accepts >= 99.5 % coverage); over a fixed grid of 21,000 inputs it
    does so at most 0.1 % of the time."""
    misses = sum(
        _conservative_prediction(PROFILE, remaining, seed) < remaining
        for remaining in range(1, 8)
        for seed in range(3000)
    )
    assert misses <= 21


@given(
    durations=st.lists(
        st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_segment_cursor_time_conservation(durations, cut):
    """advance() consumes exactly the operation's total time, no matter
    where a suspension splits it (plus the resume overhead)."""
    total = sum(durations)
    cursor = SegmentCursor(list(durations))
    first = cursor.advance(total * cut)
    if not cursor.finished:
        cursor.suspend()
        cursor.resume(40.0)
        second = cursor.advance(1e12)
        assert math.isclose(first + second, total + 40.0, rel_tol=1e-9)
    else:
        assert math.isclose(first, total, rel_tol=1e-9)


@given(
    updates=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 255)),
        max_size=60,
    )
)
def test_mapping_table_point_queries(updates):
    """The mapping always reflects the latest update per LPN."""
    table = PageMappingTable(64)
    latest = {}
    for lpn, token in updates:
        address = PageAddress(0, 0, 0, token % 8, token // 8)
        table.update(lpn, address)
        latest[lpn] = address
    for lpn, address in latest.items():
        assert table.lookup(lpn) == address
    assert table.mapped_count == len(latest)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_simulator_fires_in_nondecreasing_order(times):
    sim = Simulator()
    fired = []
    for time in times:
        sim.at(time, lambda t=time: fired.append(t))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


@given(
    channels=st.integers(1, 4),
    chips=st.integers(1, 3),
    planes=st.integers(1, 4),
    blocks=st.integers(1, 16),
    pages=st.integers(1, 32),
)
@settings(max_examples=40)
def test_geometry_index_bijection(channels, chips, planes, blocks, pages):
    geometry = NandGeometry(
        channels=channels,
        chips_per_channel=chips,
        planes_per_chip=planes,
        blocks_per_plane=blocks,
        pages_per_block=pages,
        page_size=4096,
    )
    indices = {
        geometry.block_index(BlockAddress(*fields))
        for fields in product(
            range(channels), range(chips), range(planes), range(blocks)
        )
    }
    assert indices == set(range(geometry.blocks))
